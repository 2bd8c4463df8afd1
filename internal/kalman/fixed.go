package kalman

import (
	"fmt"

	"streamkf/internal/mat"
)

// Fixed-size kernels for the paper's one-attribute streams.
//
// Every catalogue model a DKF stream of one measured value runs —
// constant, smoothing (n = 1), linear and sinusoidal (n = 2), all with
// m = 1 — fits in a handful of registers. For those shapes with the
// standard covariance update the filter runs the recursions below on
// plain float64 values read through mat.Matrix.Raw, instead of the
// generic workspace of heap matrices.
//
// The kernels are bit-identical to the generic path, which the DKF
// mirror invariant (source KFm and server KFs hold the same bits) and
// the persisted trajectories rest on. Each scalar is therefore
// computed in exactly the order the mat kernels compute it:
//
//   - mat.MulInto on 1x1 operands is mulScalar: a zero left operand
//     gives +0 without evaluating the product;
//   - every other MulInto element starts at +0 and adds its terms in
//     index order, skipping a term whose left operand is zero (mulAcc);
//   - mat.Dot starts at +0 and skips nothing;
//   - SymmetrizeInto keeps the diagonal and writes (a01+a10)/2 to both
//     off-diagonal entries;
//   - IdentityMinusInto computes 1-a on the diagonal and 0-a off it;
//   - the 1x1 inverse is 1/s with det = s, singular exactly when s == 0.
//
// Every product that feeds an addition or subtraction is written
// float64(a*b): the explicit conversion forces the product to be rounded
// on its own, so no compiler may fuse it into a multiply-add (arm64
// otherwise emits FMADD, whose single rounding differs from amd64's two
// and would split a mirror pair running on the two architectures).
// TestNoFusedMultiplyAdd enforces this on the package's arm64 assembly.

// kernel names the arithmetic a Filter runs its recursions on. It is
// picked once from the filter's shape, in New, and copied by Clone.
type kernel uint8

const (
	kernGeneric kernel = iota // mat workspace kernels, any shape
	kernN1                    // n = 1, m = 1, standard covariance update
	kernN2                    // n = 2, m = 1, standard covariance update
)

// pickKernel returns the fixed-size kernel for an n-state, m-measurement
// filter, or kernGeneric when none fits. The Joseph form always runs on
// the generic kernels.
func pickKernel(n, m int, joseph bool) kernel {
	if m != 1 || joseph {
		return kernGeneric
	}
	switch n {
	case 1:
		return kernN1
	case 2:
		return kernN2
	}
	return kernGeneric
}

// mulScalar is mat.MulInto's product of two 1x1 matrices.
func mulScalar(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return a * b
}

// mulAcc adds one term of mat.MulInto's general loop to acc.
func mulAcc(acc, a, b float64) float64 {
	if a == 0 {
		return acc
	}
	return acc + float64(a*b)
}

// dot2 is one element of a mat.MulInto product with inner dimension 2.
func dot2(a0, a1, b0, b1 float64) float64 {
	return mulAcc(mulAcc(0, a0, b0), a1, b1)
}

// checkPhi guards the fixed kernels against a transition function whose
// matrix changed shape after Validate checked Phi(0); the generic kernels
// panic on the same mistake inside mat.MulInto.
func checkPhi(phi *mat.Matrix, n int) {
	if phi.Rows() != n || phi.Cols() != n {
		badPhi(phi, n)
	}
}

func badPhi(phi *mat.Matrix, n int) {
	panic(fmt.Sprintf("kalman: Phi is %dx%d, want %dx%d", phi.Rows(), phi.Cols(), n, n))
}

// predict1 is Predict for n = 1:
// x = φx, P = (φP)φ + Q.
func (f *Filter) predict1(phi *mat.Matrix) {
	checkPhi(phi, 1)
	a := phi.Raw()[0]
	x := (*[1]float64)(f.x.Raw())
	p := (*[1]float64)(f.p.Raw())
	x[0] = mulScalar(a, x[0])
	p[0] = mulScalar(mulScalar(a, p[0]), a) + f.q.Raw()[0]
}

// predict2 is Predict for n = 2:
// x = φx, P = sym((φP)φᵀ + Q).
func (f *Filter) predict2(phi *mat.Matrix) {
	checkPhi(phi, 2)
	ph := (*[4]float64)(phi.Raw())
	x := (*[2]float64)(f.x.Raw())
	p := (*[4]float64)(f.p.Raw())
	q := (*[4]float64)(f.q.Raw())
	f00, f01, f10, f11 := ph[0], ph[1], ph[2], ph[3]

	x0, x1 := x[0], x[1]
	x[0] = dot2(f00, f01, x0, x1)
	x[1] = dot2(f10, f11, x0, x1)

	// A = φP.
	a00 := dot2(f00, f01, p[0], p[2])
	a01 := dot2(f00, f01, p[1], p[3])
	a10 := dot2(f10, f11, p[0], p[2])
	a11 := dot2(f10, f11, p[1], p[3])
	// B = Aφᵀ + Q; P = sym(B).
	b00 := dot2(a00, a01, f00, f01) + q[0]
	b01 := dot2(a00, a01, f10, f11) + q[1]
	b10 := dot2(a10, a11, f00, f01) + q[2]
	b11 := dot2(a10, a11, f10, f11) + q[3]
	off := (b01 + b10) / 2
	p[0], p[1], p[2], p[3] = b00, off, off, b11
}

// setS installs a 1x1 innovation covariance s into the S cache,
// replicating mat.InverseInto's closed form.
func (f *Filter) setS(s float64) error {
	if s == 0 {
		return mat.ErrSingular
	}
	f.sInv = 1 / s
	f.sDet = s
	f.sValid = true
	return nil
}

// refreshS1 is refreshS for n = 1: S = (HP)H + R.
func (f *Filter) refreshS1() error {
	h := f.h.Raw()[0]
	return f.setS(mulScalar(mulScalar(h, f.p.Raw()[0]), h) + f.r.Raw()[0])
}

// refreshS2 is refreshS for n = 2: S = (HP)Hᵀ + R.
func (f *Filter) refreshS2() error {
	h := (*[2]float64)(f.h.Raw())
	p := (*[4]float64)(f.p.Raw())
	hp0 := dot2(h[0], h[1], p[0], p[2])
	hp1 := dot2(h[0], h[1], p[1], p[3])
	return f.setS(dot2(hp0, hp1, h[0], h[1]) + f.r.Raw()[0])
}

// hx returns the predicted measurement Hx of a fixed-size filter.
func (f *Filter) hx() float64 {
	if f.kern == kernN1 {
		return mulScalar(f.h.Raw()[0], f.x.Raw()[0])
	}
	h := (*[2]float64)(f.h.Raw())
	x := (*[2]float64)(f.x.Raw())
	return dot2(h[0], h[1], x[0], x[1])
}

// quadScalar is quadForm for m = 1: d·S⁻¹ as a 1x1 product, then a
// one-term mat.Dot with d.
func (f *Filter) quadScalar(d float64) float64 {
	return 0 + float64(mulScalar(d, f.sInv)*d)
}

// correct1 is Correct for n = 1 after refreshS1:
// K = (PH)S⁻¹, d = z - Hx, x = Kd + x, P = (1 - KH)P.
func (f *Filter) correct1(z float64) {
	h := f.h.Raw()[0]
	x := (*[1]float64)(f.x.Raw())
	p := (*[1]float64)(f.p.Raw())
	k := mulScalar(mulScalar(p[0], h), f.sInv)
	d := z - mulScalar(h, x[0])
	f.gain.Raw()[0] = k
	f.innov.Raw()[0] = d
	x[0] = mulScalar(k, d) + x[0]
	p[0] = mulScalar(1-mulScalar(k, h), p[0])
}

// correct2 is Correct for n = 2 after refreshS2:
// K = (PHᵀ)S⁻¹, d = z - Hx, x = Kd + x, P = sym((I - KH)P).
func (f *Filter) correct2(z float64) {
	h := (*[2]float64)(f.h.Raw())
	x := (*[2]float64)(f.x.Raw())
	p := (*[4]float64)(f.p.Raw())
	h0, h1 := h[0], h[1]
	sInv := f.sInv

	k0 := mulAcc(0, dot2(p[0], p[1], h0, h1), sInv)
	k1 := mulAcc(0, dot2(p[2], p[3], h0, h1), sInv)
	d := z - dot2(h0, h1, x[0], x[1])
	g := (*[2]float64)(f.gain.Raw())
	g[0], g[1] = k0, k1
	f.innov.Raw()[0] = d

	x[0] = mulAcc(0, k0, d) + x[0]
	x[1] = mulAcc(0, k1, d) + x[1]

	// I - KH.
	i00 := 1 - mulAcc(0, k0, h0)
	i01 := 0 - mulAcc(0, k0, h1)
	i10 := 0 - mulAcc(0, k1, h0)
	i11 := 1 - mulAcc(0, k1, h1)
	// P = sym((I - KH)P).
	p00, p01, p10, p11 := p[0], p[1], p[2], p[3]
	b00 := dot2(i00, i01, p00, p10)
	b01 := dot2(i00, i01, p01, p11)
	b10 := dot2(i10, i11, p00, p10)
	b11 := dot2(i10, i11, p01, p11)
	off := (b01 + b10) / 2
	p[0], p[1], p[2], p[3] = b00, off, off, b11
}
