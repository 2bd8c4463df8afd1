package kalman

import (
	"errors"
	"fmt"

	"streamkf/internal/mat"
)

// StateFunc propagates a state vector non-linearly: x_{k+1} = f(k, x_k).
type StateFunc func(k int, x *mat.Matrix) *mat.Matrix

// MeasFunc maps a state vector to the expected measurement: z = h(x).
type MeasFunc func(x *mat.Matrix) *mat.Matrix

// JacobianFunc returns the Jacobian of a StateFunc or MeasFunc evaluated
// at x (and step k for transitions).
type JacobianFunc func(k int, x *mat.Matrix) *mat.Matrix

// ekfWorkspace holds the scratch matrices an EKF needs per step. Unlike
// the linear filter, the EKF keeps no innovation-covariance cache: the
// measurement Jacobian is re-evaluated at every Correct, so S is never
// reusable across calls.
type ekfWorkspace struct {
	ht   *mat.Matrix // n x m: transpose of the current measurement Jacobian
	nn1  *mat.Matrix // n x n
	nn2  *mat.Matrix // n x n
	nn3  *mat.Matrix // n x n
	nm   *mat.Matrix // n x m
	mn   *mat.Matrix // m x n
	n1   *mat.Matrix // n x 1
	s    *mat.Matrix // m x m
	sInv *mat.Matrix // m x m
	mm   *mat.Matrix // m x m scratch for InverseInto
}

func newEKFWorkspace(n, m int) *ekfWorkspace {
	return &ekfWorkspace{
		ht:   mat.New(n, m),
		nn1:  mat.New(n, n),
		nn2:  mat.New(n, n),
		nn3:  mat.New(n, n),
		nm:   mat.New(n, m),
		mn:   mat.New(m, n),
		n1:   mat.New(n, 1),
		s:    mat.New(m, m),
		sInv: mat.New(m, m),
		mm:   mat.New(m, m),
	}
}

// EKF is an extended Kalman filter: the state propagation and measurement
// equations may be non-linear and are linearized at the most recent
// estimate (paper §3.2 cases 2–3, future work item 3). The EKF loses the
// provable optimality of the linear filter but retains its recursive
// prediction–correction structure.
type EKF struct {
	f     StateFunc
	fJac  JacobianFunc
	h     MeasFunc
	hJac  JacobianFunc
	q, r  *mat.Matrix
	x, p  *mat.Matrix
	k     int
	gain  *mat.Matrix // reused n x m Kalman gain buffer
	innov *mat.Matrix // reused m x 1 innovation buffer
	ws    *ekfWorkspace
}

// EKFConfig configures an extended Kalman filter.
type EKFConfig struct {
	F    StateFunc    // non-linear state propagation
	FJac JacobianFunc // ∂f/∂x at (k, x)
	H    MeasFunc     // non-linear measurement function
	HJac JacobianFunc // ∂h/∂x at x (k is ignored)
	Q    *mat.Matrix  // process noise covariance (n x n)
	R    *mat.Matrix  // measurement noise covariance (m x m)
	X0   *mat.Matrix  // initial state (n x 1)
	P0   *mat.Matrix  // initial covariance; nil means 1e3 * I
}

// NewEKF constructs an EKF, validating what can be validated statically.
func NewEKF(cfg EKFConfig) (*EKF, error) {
	if cfg.F == nil || cfg.FJac == nil || cfg.H == nil || cfg.HJac == nil {
		return nil, errors.New("kalman: EKFConfig requires F, FJac, H and HJac")
	}
	if cfg.Q == nil || cfg.R == nil || cfg.X0 == nil {
		return nil, errors.New("kalman: EKFConfig requires Q, R and X0")
	}
	n := cfg.X0.Rows()
	if cfg.X0.Cols() != 1 {
		return nil, fmt.Errorf("kalman: EKF X0 is %dx%d, want %dx1", cfg.X0.Rows(), cfg.X0.Cols(), n)
	}
	if cfg.Q.Rows() != n || cfg.Q.Cols() != n {
		return nil, fmt.Errorf("kalman: EKF Q is %dx%d, want %dx%d", cfg.Q.Rows(), cfg.Q.Cols(), n, n)
	}
	p0 := cfg.P0
	if p0 == nil {
		p0 = mat.ScaledIdentity(n, 1e3)
	}
	return &EKF{
		f: cfg.F, fJac: cfg.FJac, h: cfg.H, hJac: cfg.HJac,
		q: cfg.Q.Clone(), r: cfg.R.Clone(),
		x: cfg.X0.Clone(), p: p0.Clone(),
		ws: newEKFWorkspace(n, cfg.R.Rows()),
	}, nil
}

// Predict propagates the state through the non-linear model and the
// covariance through its linearization.
func (e *EKF) Predict() {
	jac := e.fJac(e.k, e.x)
	e.x = e.f(e.k, e.x)
	ws := e.ws
	mat.MulInto(ws.nn1, jac, e.p)
	mat.TransposeInto(ws.nn2, jac)
	mat.MulInto(ws.nn3, ws.nn1, ws.nn2)
	mat.AddInto(ws.nn3, ws.nn3, e.q)
	mat.SymmetrizeInto(e.p, ws.nn3)
	e.k++
}

// Correct folds in measurement z using the measurement Jacobian at the
// current estimate.
func (e *EKF) Correct(z *mat.Matrix) error {
	hj := e.hJac(e.k, e.x)
	if z.Rows() != hj.Rows() || z.Cols() != 1 {
		return fmt.Errorf("kalman: EKF measurement is %dx%d, want %dx1", z.Rows(), z.Cols(), hj.Rows())
	}
	ws := e.ws
	// S = H P H^T + R at the current linearization.
	mat.TransposeInto(ws.ht, hj)
	mat.MulInto(ws.mn, hj, e.p)
	mat.MulInto(ws.s, ws.mn, ws.ht)
	mat.AddInto(ws.s, ws.s, e.r)
	if _, err := mat.InverseInto(ws.sInv, ws.s, ws.mm); err != nil {
		return fmt.Errorf("kalman: EKF innovation covariance singular: %w", err)
	}
	if e.gain == nil {
		e.gain = mat.New(e.x.Rows(), e.r.Rows())
	}
	if e.innov == nil {
		e.innov = mat.New(e.r.Rows(), 1)
	}
	// K = P H^T S^-1.
	mat.MulInto(ws.nm, e.p, ws.ht)
	mat.MulInto(e.gain, ws.nm, ws.sInv)
	// d = z - h(x).
	mat.SubInto(e.innov, z, e.h(e.x))
	// x = x + K d.
	mat.MulInto(ws.n1, e.gain, e.innov)
	mat.AddInto(e.x, ws.n1, e.x)
	// P = sym((I - K H) P).
	mat.MulInto(ws.nn1, e.gain, hj)
	mat.IdentityMinusInto(ws.nn1, ws.nn1)
	mat.MulInto(ws.nn2, ws.nn1, e.p)
	mat.SymmetrizeInto(e.p, ws.nn2)
	return nil
}

// Step runs Predict then Correct.
func (e *EKF) Step(z *mat.Matrix) error {
	e.Predict()
	return e.Correct(z)
}

// State returns a copy of the state estimate.
func (e *EKF) State() *mat.Matrix { return e.x.Clone() }

// Cov returns a copy of the error covariance.
func (e *EKF) Cov() *mat.Matrix { return e.p.Clone() }

// PredictedMeasurement returns h(x) for the current estimate.
func (e *EKF) PredictedMeasurement() *mat.Matrix { return e.h(e.x) }

// Innovation returns the most recent innovation, or nil before any Correct.
func (e *EKF) Innovation() *mat.Matrix {
	if e.innov == nil {
		return nil
	}
	return e.innov.Clone()
}

// Clone returns a deep copy sharing only the stateless model functions.
// The clone gets a fresh workspace, so the pair share no mutable matrix.
func (e *EKF) Clone() *EKF {
	c := &EKF{
		f: e.f, fJac: e.fJac, h: e.h, hJac: e.hJac,
		q: e.q.Clone(), r: e.r.Clone(),
		x: e.x.Clone(), p: e.p.Clone(), k: e.k,
		ws: newEKFWorkspace(e.x.Rows(), e.r.Rows()),
	}
	if e.gain != nil {
		c.gain = e.gain.Clone()
	}
	if e.innov != nil {
		c.innov = e.innov.Clone()
	}
	return c
}
