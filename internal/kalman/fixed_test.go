package kalman

import (
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"streamkf/internal/mat"
)

// forceGeneric switches f onto the generic workspace kernels whatever its
// shape. It is the only way to run a fixed-size shape through the generic
// path, and it exists for this file's equivalence gates alone.
func forceGeneric(f *Filter) *Filter {
	f.kern = kernGeneric
	f.ws = newWorkspace(f.h)
	f.sValid = false
	return f
}

// fixedShapeConfigs covers every n ≤ 2, m = 1 shape the model catalogue
// builds, plus a dense custom model whose every matrix entry is non-zero
// and a negative-zero start that exercises the kernels' zero handling.
func fixedShapeConfigs() map[string]Config {
	linear := func(dt float64) Config {
		return Config{
			Phi: Static(mat.FromRows([][]float64{{1, dt}, {0, 1}})),
			H:   mat.FromRows([][]float64{{1, 0}}),
			Q:   mat.ScaledIdentity(2, 0.05),
			R:   mat.Diag(0.05),
			X0:  mat.Vec(0, 0),
		}
	}
	const omega, theta, gamma = 18 / math.Pi, math.Pi, 0.8
	negZero := math.Copysign(0, -1)
	return map[string]Config{
		"constant": {
			Phi: Static(mat.Identity(1)),
			H:   mat.Identity(1),
			Q:   mat.Diag(0.05),
			R:   mat.Diag(0.05),
			X0:  mat.Vec(1.5),
		},
		"constant-negzero": {
			Phi: Static(mat.Identity(1)),
			H:   mat.Identity(1),
			Q:   mat.Diag(0.05),
			R:   mat.Diag(0.05),
			X0:  mat.Vec(negZero),
			P0:  mat.Diag(negZero),
		},
		"smoothing": {
			Phi: Static(mat.Identity(1)),
			H:   mat.Identity(1),
			Q:   mat.Diag(1e-3),
			R:   mat.Diag(0.5),
			X0:  mat.Vec(-2),
		},
		"scalar-dense": {
			Phi: Static(mat.Diag(0.97)),
			H:   mat.Diag(1.3),
			Q:   mat.Diag(0.02),
			R:   mat.Diag(0.2),
			X0:  mat.Vec(0.4),
		},
		"linear-dt1":   linear(1),
		"linear-dt0.1": linear(0.1),
		"sinusoidal": {
			Phi: func(k int) *mat.Matrix {
				return mat.FromRows([][]float64{
					{1, gamma * math.Cos(omega*float64(k)+theta)},
					{0, 1},
				})
			},
			H:  mat.FromRows([][]float64{{1, 0}}),
			Q:  mat.ScaledIdentity(2, 0.05),
			R:  mat.Diag(0.05),
			X0: mat.Vec(3, 1),
		},
		"custom-dense": {
			Phi: Static(mat.FromRows([][]float64{{0.9, 0.2}, {-0.1, 0.95}})),
			H:   mat.FromRows([][]float64{{0.7, -0.3}}),
			Q:   mat.FromRows([][]float64{{0.02, 0.005}, {0.005, 0.01}}),
			R:   mat.Diag(0.1),
			X0:  mat.Vec(negZero, 0.5),
			P0:  mat.FromRows([][]float64{{4, -1}, {-1, 2}}),
		},
	}
}

// requireSameBits fails unless a and b have the same shape and the same
// bit pattern in every element (so +0 and -0 differ, and NaN matches NaN).
func requireSameBits(t *testing.T, step int, what string, a, b *mat.Matrix) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("step %d: %s: fixed %v, generic %v", step, what, a, b)
	}
	if a == nil {
		return
	}
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("step %d: %s shapes differ: %v vs %v", step, what, a, b)
	}
	ra, rb := a.Raw(), b.Raw()
	for i := range ra {
		if math.Float64bits(ra[i]) != math.Float64bits(rb[i]) {
			t.Fatalf("step %d: %s[%d]: fixed %v (%#x), generic %v (%#x)",
				step, what, i, ra[i], math.Float64bits(ra[i]), rb[i], math.Float64bits(rb[i]))
		}
	}
}

func requireSameFloat(t *testing.T, step int, what string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("step %d: %s: fixed %v (%#x), generic %v (%#x)",
			step, what, a, math.Float64bits(a), b, math.Float64bits(b))
	}
}

func requireSameFilter(t *testing.T, step int, fx, gen *Filter) {
	t.Helper()
	if fx.k != gen.k || fx.corrected != gen.corrected {
		t.Fatalf("step %d: k/corrected: fixed %d/%v, generic %d/%v", step, fx.k, fx.corrected, gen.k, gen.corrected)
	}
	requireSameBits(t, step, "x", fx.x, gen.x)
	requireSameBits(t, step, "P", fx.p, gen.p)
	requireSameBits(t, step, "gain", fx.gain, gen.gain)
	requireSameBits(t, step, "innovation", fx.innov, gen.innov)
}

// TestFixedKernelsBitIdenticalToGeneric drives every fixed-size shape
// through the fixed kernels and the generic workspace kernels side by
// side for 10⁵ steps of a seeded predict/probe/correct pattern —
// measurements include +0, -0, large jumps and long runs of suppressed
// corrections — and requires identical bits in x, P, the gain, the
// innovation, NIS, the log-likelihood and Hx after every step, and after
// periodic Clone and Restore. The generic side runs internal/mat, whose
// kernels the arm64 compiler still fuses into multiply-adds; there this
// test reports that hole rather than a fixed-kernel bug.
func TestFixedKernelsBitIdenticalToGeneric(t *testing.T) {
	const steps = 100_000
	for name, cfg := range fixedShapeConfigs() {
		t.Run(name, func(t *testing.T) {
			fx := MustNew(cfg)
			if fx.kern == kernGeneric || fx.ws != nil {
				t.Fatalf("shape %dx%d picked the generic kernel", fx.StateDim(), fx.MeasDim())
			}
			gen := forceGeneric(MustNew(cfg))
			rng := traceLCG(20240917)
			z := mat.New(1, 1)
			hxF, hxG := mat.New(1, 1), mat.New(1, 1)
			level := 0.0
			for step := 0; step < steps; step++ {
				fx.Predict()
				gen.Predict()

				r := rng.next()
				level += 0.01 * r
				zv := level + 0.5*math.Sin(float64(step)/50) + 0.2*r
				switch {
				case step%97 == 0:
					zv = 0
				case step%89 == 0:
					zv = math.Copysign(0, -1)
				case step%1009 == 0:
					zv = 1e6 * r
				}
				z.Raw()[0] = zv

				if step%3 != 0 {
					nf, errF := fx.NIS(z)
					ng, errG := gen.NIS(z)
					if (errF == nil) != (errG == nil) {
						t.Fatalf("step %d: NIS errors differ: %v vs %v", step, errF, errG)
					}
					requireSameFloat(t, step, "NIS", nf, ng)
				}
				if step%5 == 0 {
					lf, errF := fx.LogLikelihood(z)
					lg, errG := gen.LogLikelihood(z)
					if (errF == nil) != (errG == nil) {
						t.Fatalf("step %d: LogLikelihood errors differ: %v vs %v", step, errF, errG)
					}
					requireSameFloat(t, step, "log-likelihood", lf, lg)
				}
				requireSameBits(t, step, "Hx", fx.PredictedMeasurementInto(hxF), gen.PredictedMeasurementInto(hxG))

				// Corrections follow a seeded pattern with long suppressed
				// runs, the shape DKF suppression produces.
				if r > 0.4 || step%13 == 0 {
					errF, errG := fx.Correct(z), gen.Correct(z)
					if (errF == nil) != (errG == nil) {
						t.Fatalf("step %d: Correct errors differ: %v vs %v", step, errF, errG)
					}
				}
				requireSameFilter(t, step, fx, gen)

				switch {
				case step%997 == 996:
					fx, gen = fx.Clone(), gen.Clone()
					if fx.kern == kernGeneric || gen.kern != kernGeneric {
						t.Fatalf("step %d: Clone changed kernels", step)
					}
					requireSameFilter(t, step, fx, gen)
				case step%1499 == 1498:
					x, p, k := gen.State(), gen.Cov(), gen.K()
					fx.Restore(x, p, k)
					gen.Restore(x, p, k)
					requireSameFilter(t, step, fx, gen)
				}
			}
		})
	}
}

// TestFixedKernelSelection pins which shapes run the fixed kernels: the
// n ≤ 2, m = 1 standard update only. Everything else — larger states,
// vector measurements, the Joseph form — keeps its workspace.
func TestFixedKernelSelection(t *testing.T) {
	for name, cfg := range fixedShapeConfigs() {
		if f := MustNew(cfg); f.ws != nil || f.Clone().ws != nil {
			t.Errorf("%s: fixed-size filter allocated a workspace", name)
		}
	}
	eq := equivalenceConfigs()
	generic := map[string]Config{
		"joseph": eq["linear2-joseph"],
		"m=2":    eq["meas2"],
		"n=3": {
			Phi: Static(mat.Identity(3)),
			H:   mat.FromRows([][]float64{{1, 0, 0}}),
			Q:   mat.ScaledIdentity(3, 0.05),
			R:   mat.Diag(0.05),
			X0:  mat.Vec(0, 0, 0),
		},
	}
	for name, cfg := range generic {
		if f := MustNew(cfg); f.kern != kernGeneric || f.ws == nil || f.Clone().ws == nil {
			t.Errorf("%s: should run the generic kernel", name)
		}
	}
}

// TestFixedKernelPhiShapeChecked: a transition function whose matrix
// changes shape after construction panics in the fixed kernels, as it
// does in the generic ones.
func TestFixedKernelPhiShapeChecked(t *testing.T) {
	cfg := fixedShapeConfigs()["linear-dt1"]
	cfg.Phi = func(k int) *mat.Matrix {
		if k == 0 {
			return mat.Identity(2)
		}
		return mat.Identity(3)
	}
	f := MustNew(cfg)
	f.Predict()
	defer func() {
		if recover() == nil {
			t.Fatal("Predict accepted a 3x3 transition for a 2-state filter")
		}
	}()
	f.Predict()
}

// fusedOp matches arm64's fused multiply-add family (FMADDD, FMSUBS,
// FNMADDD, ...), whose single rounding differs from a separate multiply
// and add.
var fusedOp = regexp.MustCompile(`\bFN?M(ADD|SUB)[SD]\b`)

// TestNoFusedMultiplyAdd cross-compiles this package for arm64 with the
// local toolchain and fails on any fused multiply-add in its assembly.
// amd64 never fuses, so one fused site would let a mirror filter on an
// arm64 source drift from its amd64 server; every product that feeds an
// addition must be written float64(a*b).
func TestNoFusedMultiplyAdd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0", "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	// Guard against a vacuous pass: the listing must hold the kernels.
	if !strings.Contains(string(out), "(*Filter).predict2") || !strings.Contains(string(out), "FMULD") {
		t.Fatalf("arm64 build printed no assembly for the kernels (%d bytes)", len(out))
	}
	var fused []string
	for _, line := range strings.Split(string(out), "\n") {
		if fusedOp.MatchString(line) {
			fused = append(fused, line)
		}
	}
	if len(fused) > 0 {
		t.Fatalf("%d fused multiply-add instructions on arm64:\n%s", len(fused), strings.Join(fused, "\n"))
	}
}

// TestFixedHelpersMatchMat checks the scalar helpers against the mat
// kernels they stand in for over signed zeros, infinities, NaN and
// extreme magnitudes — values whose results depend on the zero-skip and
// on the +0 start of the accumulation, which ordinary trajectories
// rarely reach. Any NaN matches any NaN: Go leaves NaN payloads
// unspecified, and the compiler may swap the operands of an addition.
func TestFixedHelpersMatchMat(t *testing.T) {
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%s: fixed %v (%#x), mat %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.3, -2.5, 1e-300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN()}
	a11, b11, d11 := mat.New(1, 1), mat.New(1, 1), mat.New(1, 1)
	a12, b21 := mat.New(1, 2), mat.New(2, 1)
	a21, d21 := mat.New(2, 1), mat.New(2, 1)
	for _, a0 := range vals {
		for _, a1 := range vals {
			for _, b0 := range vals {
				a11.Raw()[0], b11.Raw()[0] = a0, b0
				same("mulScalar", mulScalar(a0, b0), mat.MulInto(d11, a11, b11).Raw()[0])
				same("quadScalar", (&Filter{sInv: b0}).quadScalar(a0), mat.Dot(mat.MulInto(d11, a11, b11), a11))
				copy(a21.Raw(), []float64{a0, a1})
				mat.MulInto(d21, a21, b11)
				same("mulAcc", mulAcc(0, a0, b0), d21.Raw()[0])
				same("mulAcc", mulAcc(0, a1, b0), d21.Raw()[1])
				for _, b1 := range vals {
					copy(a12.Raw(), []float64{a0, a1})
					copy(b21.Raw(), []float64{b0, b1})
					same("dot2", dot2(a0, a1, b0, b1), mat.MulInto(d11, a12, b21).Raw()[0])
				}
			}
		}
	}
}
