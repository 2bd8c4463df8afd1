// Package kalman implements the discrete Kalman filter family the paper
// builds on: the standard linear filter (Eq. 3–12 of the paper), the
// steady-state filter obtained by iterating the Riccati equation (§3.2
// case 5), the extended Kalman filter for non-linear models (§3.2 cases
// 2–3), recursive least squares as the zero-measurement-noise degenerate
// case (§3.2 case 4), and innovation-based adaptive noise estimation
// (future work item 6).
//
// The filter deliberately exposes Predict and Correct as separate steps:
// the Dual Kalman Filter protocol advances prediction on every time step
// but applies a correction only when an update is transmitted, so the two
// halves of a predict–correct cycle are driven independently by the
// protocol layer (internal/core).
//
// The per-reading hot path (Predict, Correct, NIS, LogLikelihood) is
// allocation-free in steady state. New picks one of two kernels from the
// filter's shape. The paper's one-attribute streams (n ≤ 2 states, one
// measurement, standard covariance update) run unrolled scalar
// arithmetic with no scratch matrices (fixed.go); every other shape owns
// a workspace of scratch matrices sized at construction and runs on the
// destination-taking mat kernels. Both kernels replicate the
// floating-point operation order of the allocating API they replaced,
// products never fused into multiply-adds, so filter trajectories are
// bit-identical to the historical implementation whichever kernel runs —
// the property the DKF mirror-synchrony invariant rests on.
package kalman

import (
	"errors"
	"fmt"
	"math"

	"streamkf/internal/mat"
)

// TransitionFunc returns the state transition matrix φ_k for time step k.
// Models with a time-varying transition (the paper's sinusoidal model,
// Eq. 17) supply a function; time-invariant models wrap a constant.
type TransitionFunc func(k int) *mat.Matrix

// Static wraps a constant transition matrix as a TransitionFunc.
func Static(phi *mat.Matrix) TransitionFunc {
	return func(int) *mat.Matrix { return phi }
}

// Config assembles everything needed to construct a Filter.
type Config struct {
	// Phi produces the n x n state transition matrix for step k.
	Phi TransitionFunc
	// H is the m x n measurement matrix relating state to measurement.
	H *mat.Matrix
	// Q is the n x n process noise covariance.
	Q *mat.Matrix
	// R is the m x m measurement noise covariance.
	R *mat.Matrix
	// X0 is the initial n x 1 state estimate.
	X0 *mat.Matrix
	// P0 is the initial n x n error covariance. If nil, a large diagonal
	// (1e3 * I) is used, expressing low confidence in X0.
	P0 *mat.Matrix
	// JosephForm selects the Joseph stabilized covariance update
	// P = (I-KH) P (I-KH)^T + K R K^T, which preserves symmetry and
	// positive semi-definiteness under roundoff at ~2x the cost of the
	// standard (I-KH) P form. See BenchmarkAblationJosephForm.
	JosephForm bool
}

// Validate checks that the configuration is dimensionally consistent.
func (c Config) Validate() error {
	if c.Phi == nil {
		return errors.New("kalman: Config.Phi is nil")
	}
	if c.H == nil || c.Q == nil || c.R == nil || c.X0 == nil {
		return errors.New("kalman: Config requires H, Q, R and X0")
	}
	n := c.X0.Rows()
	if c.X0.Cols() != 1 {
		return fmt.Errorf("kalman: X0 must be a column vector, got %dx%d", c.X0.Rows(), c.X0.Cols())
	}
	phi0 := c.Phi(0)
	if phi0.Rows() != n || phi0.Cols() != n {
		return fmt.Errorf("kalman: Phi(0) is %dx%d, want %dx%d", phi0.Rows(), phi0.Cols(), n, n)
	}
	if c.Q.Rows() != n || c.Q.Cols() != n {
		return fmt.Errorf("kalman: Q is %dx%d, want %dx%d", c.Q.Rows(), c.Q.Cols(), n, n)
	}
	m := c.H.Rows()
	if c.H.Cols() != n {
		return fmt.Errorf("kalman: H is %dx%d, want %dx%d", c.H.Rows(), c.H.Cols(), m, n)
	}
	if c.R.Rows() != m || c.R.Cols() != m {
		return fmt.Errorf("kalman: R is %dx%d, want %dx%d", c.R.Rows(), c.R.Cols(), m, m)
	}
	if c.P0 != nil && (c.P0.Rows() != n || c.P0.Cols() != n) {
		return fmt.Errorf("kalman: P0 is %dx%d, want %dx%d", c.P0.Rows(), c.P0.Cols(), n, n)
	}
	return nil
}

// workspace holds the scratch matrices a generic-kernel filter needs to
// run a full predict/correct cycle without heap allocation, plus its
// cached innovation covariance and inverse. Every such Filter owns its
// workspace exclusively; Clone builds a fresh one, so clones share
// nothing mutable.
type workspace struct {
	ht   *mat.Matrix // n x m: H^T, fixed for the filter's lifetime
	nn1  *mat.Matrix // n x n scratch
	nn2  *mat.Matrix // n x n scratch
	nn3  *mat.Matrix // n x n scratch
	nm   *mat.Matrix // n x m scratch
	mn   *mat.Matrix // m x n scratch
	n1   *mat.Matrix // n x 1 scratch
	m1   *mat.Matrix // m x 1 scratch
	row1 *mat.Matrix // 1 x m scratch for the NIS quadratic form
	row2 *mat.Matrix // 1 x m scratch for the NIS quadratic form
	s    *mat.Matrix // m x m: innovation covariance S = H P H^T + R
	sInv *mat.Matrix // m x m: S^-1
	mm   *mat.Matrix // m x m scratch for InverseInto
}

func newWorkspace(h *mat.Matrix) *workspace {
	m, n := h.Rows(), h.Cols()
	return &workspace{
		ht:   mat.Transpose(h),
		nn1:  mat.New(n, n),
		nn2:  mat.New(n, n),
		nn3:  mat.New(n, n),
		nm:   mat.New(n, m),
		mn:   mat.New(m, n),
		n1:   mat.New(n, 1),
		m1:   mat.New(m, 1),
		row1: mat.New(1, m),
		row2: mat.New(1, m),
		s:    mat.New(m, m),
		sInv: mat.New(m, m),
		mm:   mat.New(m, m),
	}
}

// Filter is a discrete Kalman filter over the system
//
//	x_{k+1} = φ_k x_k + w_k,   w ~ N(0, Q)
//	z_k     = H x_k + ν_k,     ν ~ N(0, R)
//
// following the paper's Eqs. 3–12.
type Filter struct {
	phi TransitionFunc
	h   *mat.Matrix
	q   *mat.Matrix
	r   *mat.Matrix

	x *mat.Matrix // current state estimate (a priori after Predict, a posteriori after Correct)
	p *mat.Matrix // error covariance matching x

	k         int         // discrete time index: number of Predict steps taken
	gain      *mat.Matrix // most recent Kalman gain K_k, reused across corrections
	innov     *mat.Matrix // most recent innovation z - H x^-, reused across corrections
	corrected bool        // whether Correct has run since the last Predict
	joseph    bool        // use the Joseph stabilized covariance update

	kern kernel     // arithmetic picked from the shape (see fixed.go)
	ws   *workspace // generic kernel only; nil for the fixed-size kernels

	// sValid marks the cached innovation covariance (sDet, and S⁻¹ in
	// sInv or ws.sInv) as current for the present (x, P, R). Correct,
	// NIS and LogLikelihood share it, so the DKF source path (NIS gate
	// followed by Correct on the same prediction) builds and inverts S
	// once instead of twice.
	sValid bool
	sDet   float64
	sInv   float64 // S⁻¹ of the fixed-size kernels, where m = 1
}

// New constructs a Filter from cfg, validating dimensions.
func New(cfg Config) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p0 := cfg.P0
	if p0 == nil {
		p0 = mat.ScaledIdentity(cfg.X0.Rows(), 1e3)
	}
	f := &Filter{
		phi:    cfg.Phi,
		h:      cfg.H.Clone(),
		q:      cfg.Q.Clone(),
		r:      cfg.R.Clone(),
		x:      cfg.X0.Clone(),
		p:      p0.Clone(),
		joseph: cfg.JosephForm,
		kern:   pickKernel(cfg.X0.Rows(), cfg.H.Rows(), cfg.JosephForm),
	}
	if f.kern == kernGeneric {
		f.ws = newWorkspace(f.h)
	}
	return f, nil
}

// MustNew is New but panics on configuration error. For tests and
// statically known-correct model constructions.
func MustNew(cfg Config) *Filter {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// StateDim returns n, the number of state variables.
func (f *Filter) StateDim() int { return f.x.Rows() }

// MeasDim returns m, the number of measurement variables.
func (f *Filter) MeasDim() int { return f.h.Rows() }

// K returns the current discrete time index (number of Predict calls).
func (f *Filter) K() int { return f.k }

// State returns a copy of the current state estimate vector.
func (f *Filter) State() *mat.Matrix { return f.x.Clone() }

// Cov returns a copy of the current error covariance.
func (f *Filter) Cov() *mat.Matrix { return f.p.Clone() }

// Gain returns a copy of the most recent Kalman gain, or nil before the
// first correction.
func (f *Filter) Gain() *mat.Matrix {
	if f.gain == nil {
		return nil
	}
	return f.gain.Clone()
}

// Innovation returns a copy of the most recent innovation z - Hx^-, or nil
// before the first correction. The paper uses the innovation sequence for
// outlier detection and adaptive sampling (advantage 5, §3.1).
func (f *Filter) Innovation() *mat.Matrix {
	if f.innov == nil {
		return nil
	}
	return f.innov.Clone()
}

// Predict propagates the state one step forward:
//
//	x^- = φ_k x,   P^- = φ_k P φ_k^T + Q.
//
// After Predict, State/PredictedMeasurement report the a priori estimate.
func (f *Filter) Predict() {
	phi := f.phi(f.k)
	switch f.kern {
	case kernN1:
		f.predict1(phi)
	case kernN2:
		f.predict2(phi)
	default:
		ws := f.ws
		mat.MulInto(ws.n1, phi, f.x)
		f.x, ws.n1 = ws.n1, f.x
		mat.MulInto(ws.nn1, phi, f.p)
		mat.TransposeInto(ws.nn2, phi)
		mat.MulInto(ws.nn3, ws.nn1, ws.nn2)
		mat.AddInto(ws.nn3, ws.nn3, f.q)
		mat.SymmetrizeInto(f.p, ws.nn3)
	}
	f.k++
	f.corrected = false
	f.sValid = false
}

// PredictedMeasurement returns H x, the measurement the filter expects
// given the current state estimate. In the DKF protocol this is the value
// the server would answer a query with.
func (f *Filter) PredictedMeasurement() *mat.Matrix {
	return mat.Mul(f.h, f.x)
}

// PredictedMeasurementInto writes H x into dst (m x 1) without
// allocating, and returns dst. The protocol layer keeps a reusable
// destination per node to stay off the heap on every reading.
func (f *Filter) PredictedMeasurementInto(dst *mat.Matrix) *mat.Matrix {
	if f.kern != kernGeneric && dst.Rows() == 1 && dst.Cols() == 1 {
		dst.Raw()[0] = f.hx()
		return dst
	}
	return mat.MulInto(dst, f.h, f.x)
}

// checkMeasurement validates the shape of a measurement vector.
func (f *Filter) checkMeasurement(z *mat.Matrix) error {
	if z.Rows() != f.h.Rows() || z.Cols() != 1 {
		return fmt.Errorf("kalman: measurement is %dx%d, want %dx1", z.Rows(), z.Cols(), f.h.Rows())
	}
	return nil
}

// refreshS (re)computes the innovation covariance S = H P H^T + R, its
// inverse and determinant into the workspace, unless the cached values
// are still current. This is the single home of the computation Correct,
// NIS and LogLikelihood previously each rebuilt from scratch.
func (f *Filter) refreshS() error {
	if f.sValid {
		return nil
	}
	switch f.kern {
	case kernN1:
		return f.refreshS1()
	case kernN2:
		return f.refreshS2()
	}
	ws := f.ws
	mat.MulInto(ws.mn, f.h, f.p)
	mat.MulInto(ws.s, ws.mn, ws.ht)
	mat.AddInto(ws.s, ws.s, f.r)
	det, err := mat.InverseInto(ws.sInv, ws.s, ws.mm)
	if err != nil {
		return err
	}
	f.sDet = det
	f.sValid = true
	return nil
}

// residualQuad returns d^T S^-1 d for d = z - H x, using the cached
// S^-1 (refreshS must have run). The generic kernel replicates the
// left-associated evaluation order of mat.Mul3(Transpose(d), sInv, d).
func (f *Filter) residualQuad(z *mat.Matrix) float64 {
	if f.kern != kernGeneric {
		return f.quadScalar(z.Raw()[0] - f.hx())
	}
	ws := f.ws
	mat.MulInto(ws.m1, f.h, f.x)
	mat.SubInto(ws.m1, z, ws.m1)
	mat.TransposeInto(ws.row1, ws.m1)
	mat.MulInto(ws.row2, ws.row1, ws.sInv)
	return mat.Dot(ws.row2, ws.m1)
}

// Correct folds measurement z (m x 1) into the state estimate:
//
//	K = P^- H^T (H P^- H^T + R)^-1
//	x = x^- + K (z - H x^-)
//	P = (I - K H) P^-
//
// Correct returns an error if the innovation covariance is singular, which
// indicates a degenerate model (e.g. zero R with an unobservable state).
func (f *Filter) Correct(z *mat.Matrix) error {
	if err := f.checkMeasurement(z); err != nil {
		return err
	}
	if err := f.refreshS(); err != nil {
		return fmt.Errorf("kalman: innovation covariance not invertible: %w", err)
	}
	if f.gain == nil {
		f.gain = mat.New(f.x.Rows(), f.h.Rows())
	}
	if f.innov == nil {
		f.innov = mat.New(f.h.Rows(), 1)
	}
	f.sValid = false
	f.corrected = true
	switch f.kern {
	case kernN1:
		f.correct1(z.Raw()[0])
		return nil
	case kernN2:
		f.correct2(z.Raw()[0])
		return nil
	}
	ws := f.ws
	// K = P H^T S^-1.
	mat.MulInto(ws.nm, f.p, ws.ht)
	mat.MulInto(f.gain, ws.nm, ws.sInv)
	// d = z - H x^-.
	mat.MulInto(f.innov, f.h, f.x)
	mat.SubInto(f.innov, z, f.innov)
	// x = x^- + K d.
	mat.MulInto(ws.n1, f.gain, f.innov)
	mat.AddInto(f.x, ws.n1, f.x)
	// I - K H.
	mat.MulInto(ws.nn1, f.gain, f.h)
	mat.IdentityMinusInto(ws.nn1, ws.nn1)
	if f.joseph {
		mat.MulInto(ws.nn2, ws.nn1, f.p)
		mat.TransposeInto(ws.nn3, ws.nn1)
		mat.MulInto(ws.nn1, ws.nn2, ws.nn3) // (I-KH) P (I-KH)^T
		mat.MulInto(ws.nm, f.gain, f.r)
		mat.TransposeInto(ws.mn, f.gain)
		mat.MulInto(ws.nn2, ws.nm, ws.mn) // K R K^T
		mat.AddInto(ws.nn2, ws.nn1, ws.nn2)
		mat.SymmetrizeInto(f.p, ws.nn2)
	} else {
		mat.MulInto(ws.nn2, ws.nn1, f.p)
		mat.SymmetrizeInto(f.p, ws.nn2)
	}
	return nil
}

// Step runs one full Predict+Correct cycle with measurement z.
func (f *Filter) Step(z *mat.Matrix) error {
	f.Predict()
	return f.Correct(z)
}

// Corrected reports whether the most recent operation was a Correct
// (true) or a Predict (false). Useful for diagnostics.
func (f *Filter) Corrected() bool { return f.corrected }

// NIS returns the normalized innovation squared d^T S^-1 d for measurement
// z evaluated against the current prediction, without modifying the filter.
// Under a correct model NIS is chi-squared distributed with m degrees of
// freedom; large values indicate outliers or model mismatch.
//
// NIS shares the cached innovation covariance with Correct: the DKF
// outlier gate's NIS-then-Correct sequence inverts S once.
func (f *Filter) NIS(z *mat.Matrix) (float64, error) {
	if err := f.checkMeasurement(z); err != nil {
		return 0, err
	}
	if err := f.refreshS(); err != nil {
		return 0, fmt.Errorf("kalman: innovation covariance not invertible: %w", err)
	}
	return f.residualQuad(z), nil
}

// LogLikelihood returns the Gaussian log-likelihood of measurement z
// under the filter's current predictive distribution,
//
//	-½ (m·ln 2π + ln det S + d^T S⁻¹ d),   d = z − H x,  S = H P H^T + R,
//
// without modifying the filter. Summed over a window it scores how well
// a model explains the stream — the Bayesian counterpart of the
// prediction-error scoring used for online model selection.
func (f *Filter) LogLikelihood(z *mat.Matrix) (float64, error) {
	if err := f.checkMeasurement(z); err != nil {
		return 0, err
	}
	if err := f.refreshS(); err != nil {
		return 0, fmt.Errorf("kalman: innovation covariance not positive definite (det %v)", 0.0)
	}
	if f.sDet <= 0 {
		return 0, fmt.Errorf("kalman: innovation covariance not positive definite (det %v)", f.sDet)
	}
	quad := f.residualQuad(z)
	m := float64(f.h.Rows())
	return -0.5 * (float64(m*math.Log(2*math.Pi)) + math.Log(f.sDet) + quad), nil
}

// Clone returns a deep copy of the filter sharing only the (stateless)
// transition function. The DKF protocol clones the server filter to build
// the byte-identical mirror filter at the source. The clone runs the same
// kernel and owns its own storage (a fresh workspace, for the generic
// kernel), so the pair share no mutable matrix whatsoever.
func (f *Filter) Clone() *Filter {
	c := &Filter{
		phi:       f.phi,
		h:         f.h.Clone(),
		q:         f.q.Clone(),
		r:         f.r.Clone(),
		x:         f.x.Clone(),
		p:         f.p.Clone(),
		k:         f.k,
		corrected: f.corrected,
		joseph:    f.joseph,
		kern:      f.kern,
	}
	if f.ws != nil {
		c.ws = newWorkspace(c.h)
	}
	if f.gain != nil {
		c.gain = f.gain.Clone()
	}
	if f.innov != nil {
		c.innov = f.innov.Clone()
	}
	return c
}

// StateEqual reports whether two filters hold exactly the same state
// estimate, covariance and time index — the mirror-synchrony invariant of
// the DKF protocol.
func StateEqual(a, b *Filter) bool {
	return a.k == b.k && mat.Equal(a.x, b.x) && mat.Equal(a.p, b.p)
}

// Reset restores the filter to the given state and covariance and rewinds
// the time index to zero. Used when a model is reinstalled online.
func (f *Filter) Reset(x0, p0 *mat.Matrix) {
	if x0.Rows() != f.x.Rows() || x0.Cols() != 1 {
		panic(fmt.Sprintf("kalman: Reset state is %dx%d, want %dx1", x0.Rows(), x0.Cols(), f.x.Rows()))
	}
	if p0.Rows() != f.p.Rows() || p0.Cols() != f.p.Cols() {
		panic(fmt.Sprintf("kalman: Reset covariance is %dx%d, want %dx%d", p0.Rows(), p0.Cols(), f.p.Rows(), f.p.Cols()))
	}
	f.x = x0.Clone()
	f.p = p0.Clone()
	f.k = 0
	f.gain, f.innov = nil, nil
	f.corrected = false
	f.sValid = false
}

// Restore overwrites the filter's state estimate, covariance and
// discrete time index — the checkpoint-recovery counterpart of Reset,
// which rewinds k to zero instead. The restored filter produces the
// exact same Predict/Correct trajectory as the original because those
// operations read only (x, P, k) plus the construction-time model
// matrices; the gain/innovation diagnostics reset to their
// pre-first-correction state and are rebuilt by the next Correct.
func (f *Filter) Restore(x, p *mat.Matrix, k int) {
	if x.Rows() != f.x.Rows() || x.Cols() != 1 {
		panic(fmt.Sprintf("kalman: Restore state is %dx%d, want %dx1", x.Rows(), x.Cols(), f.x.Rows()))
	}
	if p.Rows() != f.p.Rows() || p.Cols() != f.p.Cols() {
		panic(fmt.Sprintf("kalman: Restore covariance is %dx%d, want %dx%d", p.Rows(), p.Cols(), f.p.Rows(), f.p.Cols()))
	}
	if k < 0 {
		panic(fmt.Sprintf("kalman: Restore time index %d, want >= 0", k))
	}
	f.x = x.Clone()
	f.p = p.Clone()
	f.k = k
	f.gain, f.innov = nil, nil
	f.corrected = false
	f.sValid = false
}

// SetNoise replaces the process and/or measurement noise covariances.
// Nil arguments leave the corresponding covariance unchanged. Used by the
// adaptive noise estimator.
func (f *Filter) SetNoise(q, r *mat.Matrix) {
	if q != nil {
		if q.Rows() != f.q.Rows() || q.Cols() != f.q.Cols() {
			panic(fmt.Sprintf("kalman: SetNoise Q is %dx%d, want %dx%d", q.Rows(), q.Cols(), f.q.Rows(), f.q.Cols()))
		}
		f.q = q.Clone()
	}
	if r != nil {
		if r.Rows() != f.r.Rows() || r.Cols() != f.r.Cols() {
			panic(fmt.Sprintf("kalman: SetNoise R is %dx%d, want %dx%d", r.Rows(), r.Cols(), f.r.Rows(), f.r.Cols()))
		}
		f.r = r.Clone()
		f.sValid = false
	}
}
