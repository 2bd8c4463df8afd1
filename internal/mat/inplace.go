package mat

import "fmt"

// Destination-taking kernels for allocation-free inner loops.
//
// Convention: the destination is the first argument and must already have
// the result's dimensions (Mul3Into and InverseInto reshape their scratch
// argument themselves). Element-wise kernels (AddInto, SubInto, ScaleInto,
// SymmetrizeInto, IdentityMinusInto) permit dst to alias an operand.
// Data-movement kernels (MulInto, Mul3Into, TransposeInto, InverseInto)
// require dst and scratch to be distinct from every operand and panic on
// violation. Matrices in this package never share backing storage, so
// pointer identity is a complete aliasing check.
//
// Every kernel applies the same floating-point operation order as its
// allocating counterpart (which is now a thin wrapper), so switching an
// algorithm to the Into forms is bit-identical — the property the DKF
// mirror-synchrony invariant depends on.

// checkDst stays under the inlining budget by keeping the panic
// formatting in a cold helper: the dimension guard runs on every kernel
// call in the filter hot loop, where a function call per check is
// measurable against 1x1 operands.
func checkDst(op string, dst *Matrix, r, c int) {
	if dst.rows != r || dst.cols != c {
		badDst(op, dst, r, c)
	}
}

func badDst(op string, dst *Matrix, r, c int) {
	panic(fmt.Sprintf("mat: %s destination is %dx%d, want %dx%d", op, dst.rows, dst.cols, r, c))
}

func checkNoAlias(op string, dst *Matrix, operands ...*Matrix) {
	for _, a := range operands {
		if dst == a {
			panic(fmt.Sprintf("mat: %s destination aliases an operand", op))
		}
	}
}

// Reshape resizes m to r x c, reusing the backing storage when it has the
// capacity and reallocating otherwise. The element contents after a
// reshape are unspecified. It returns m.
func (m *Matrix) Reshape(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	n := r * c
	if cap(m.data) >= n {
		m.data = m.data[:n]
	} else {
		m.data = make([]float64, n)
	}
	m.rows, m.cols = r, c
	return m
}

// AddInto sets dst = a + b and returns dst. dst may alias a and/or b.
func AddInto(dst, a, b *Matrix) *Matrix {
	sameDims("AddInto", a, b)
	checkDst("AddInto", dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
	return dst
}

// SubInto sets dst = a - b and returns dst. dst may alias a and/or b.
func SubInto(dst, a, b *Matrix) *Matrix {
	sameDims("SubInto", a, b)
	checkDst("SubInto", dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
	return dst
}

// ScaleInto sets dst = s * a and returns dst. dst may alias a.
func ScaleInto(dst *Matrix, s float64, a *Matrix) *Matrix {
	checkDst("ScaleInto", dst, a.rows, a.cols)
	for i := range a.data {
		dst.data[i] = s * a.data[i]
	}
	return dst
}

// MulInto sets dst = a * b and returns dst. dst must not alias a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	checkNoAlias("MulInto", dst, a, b)
	checkDst("MulInto", dst, a.rows, b.cols)
	if a.rows == 1 && a.cols == 1 && b.cols == 1 {
		// Scalar product — every matrix of the paper's one-attribute
		// streams. The zero-operand skip mirrors the general loop below,
		// which leaves dst at its cleared 0 rather than producing 0*NaN.
		if av := a.data[0]; av == 0 {
			dst.data[0] = 0
		} else {
			dst.data[0] = av * b.data[0]
		}
		return dst
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*b.cols : (i+1)*b.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return dst
}

// mul3RightFirst reports whether computing a*(b*c) needs strictly fewer
// multiply-adds than (a*b)*c. Ties keep the left association, so shapes
// where both orders cost the same (every product in the Kalman recursions)
// are bit-identical to the historical left-to-right evaluation.
func mul3RightFirst(a, b, c *Matrix) bool {
	left := a.rows*a.cols*b.cols + a.rows*b.cols*c.cols
	right := b.rows*b.cols*c.cols + a.rows*a.cols*c.cols
	return right < left
}

// Mul3Into sets dst = a * b * c, associating whichever way is cheaper for
// the operand shapes. scratch holds the intermediate product and is
// reshaped as needed; a nil scratch allocates one. dst must not alias any
// operand, and scratch must be distinct from dst and all operands.
func Mul3Into(dst, a, b, c, scratch *Matrix) *Matrix {
	if scratch == nil {
		scratch = &Matrix{}
	}
	checkNoAlias("Mul3Into", dst, a, b, c, scratch)
	checkNoAlias("Mul3Into scratch", scratch, a, b, c)
	if mul3RightFirst(a, b, c) {
		scratch.Reshape(b.rows, c.cols)
		MulInto(scratch, b, c)
		return MulInto(dst, a, scratch)
	}
	scratch.Reshape(a.rows, b.cols)
	MulInto(scratch, a, b)
	return MulInto(dst, scratch, c)
}

// TransposeInto sets dst = a^T and returns dst. dst must not alias a.
func TransposeInto(dst, a *Matrix) *Matrix {
	checkNoAlias("TransposeInto", dst, a)
	checkDst("TransposeInto", dst, a.cols, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			dst.data[j*a.rows+i] = a.data[i*a.cols+j]
		}
	}
	return dst
}

// SymmetrizeInto sets dst = (a + a^T)/2 and returns dst. dst may alias a.
func SymmetrizeInto(dst, a *Matrix) *Matrix {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: SymmetrizeInto on non-square %dx%d", a.rows, a.cols))
	}
	checkDst("SymmetrizeInto", dst, a.rows, a.cols)
	n := a.rows
	for i := 0; i < n; i++ {
		dst.data[i*n+i] = a.data[i*n+i]
		for j := i + 1; j < n; j++ {
			v := (a.data[i*n+j] + a.data[j*n+i]) / 2
			dst.data[i*n+j] = v
			dst.data[j*n+i] = v
		}
	}
	return dst
}

// IdentityMinusInto sets dst = I - a for square a and returns dst. dst may
// alias a. Each element is produced by the single subtraction I_ij - a_ij,
// matching Sub(Identity(n), a) bit for bit.
func IdentityMinusInto(dst, a *Matrix) *Matrix {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: IdentityMinusInto on non-square %dx%d", a.rows, a.cols))
	}
	checkDst("IdentityMinusInto", dst, a.rows, a.cols)
	n := a.rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var id float64
			if i == j {
				id = 1
			}
			dst.data[i*n+j] = id - a.data[i*n+j]
		}
	}
	return dst
}

// Dot returns the dot product of a and b viewed as flat element sequences
// (row and column vectors of equal length are the common case).
func Dot(a, b *Matrix) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("mat: Dot length mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	var s float64
	for i, v := range a.data {
		s += float64(v * b.data[i])
	}
	return s
}

// InverseInto sets dst = a^-1 for square a and returns det(a). Orders 1
// and 2 — the innovation covariance sizes of the paper's scalar and 2-D
// streams — use closed forms and touch no scratch; larger orders run
// Gauss-Jordan elimination with partial pivoting inside scratch, which is
// reshaped to a's dimensions (nil allocates one). dst must not alias a;
// scratch must be distinct from both.
func InverseInto(dst, a, scratch *Matrix) (float64, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: InverseInto on non-square %dx%d", a.rows, a.cols))
	}
	checkNoAlias("InverseInto", dst, a, scratch)
	checkDst("InverseInto", dst, a.rows, a.cols)
	n := a.rows
	switch n {
	case 0:
		return 1, nil
	case 1:
		v := a.data[0]
		if v == 0 {
			return 0, ErrSingular
		}
		dst.data[0] = 1 / v
		return v, nil
	case 2:
		a00, a01, a10, a11 := a.data[0], a.data[1], a.data[2], a.data[3]
		det := float64(a00*a11) - float64(a01*a10)
		if det == 0 {
			return 0, ErrSingular
		}
		dst.data[0] = a11 / det
		dst.data[1] = -a01 / det
		dst.data[2] = -a10 / det
		dst.data[3] = a00 / det
		return det, nil
	}
	if scratch == nil {
		scratch = &Matrix{}
	}
	if scratch == a {
		panic("mat: InverseInto scratch aliases an operand")
	}
	scratch.Reshape(n, n)
	copy(scratch.data, a.data)
	w := scratch.data
	// dst starts as the identity and receives every row operation applied
	// to the working copy, ending as a^-1.
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < n; i++ {
		dst.data[i*n+i] = 1
	}
	det := 1.0
	for k := 0; k < n; k++ {
		p, maxv := k, abs(w[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := abs(w[i*n+k]); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return 0, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				w[p*n+j], w[k*n+j] = w[k*n+j], w[p*n+j]
				dst.data[p*n+j], dst.data[k*n+j] = dst.data[k*n+j], dst.data[p*n+j]
			}
			det = -det
		}
		piv := w[k*n+k]
		det *= piv
		inv := 1 / piv
		for j := 0; j < n; j++ {
			w[k*n+j] *= inv
			dst.data[k*n+j] *= inv
		}
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			f := w[i*n+k]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				w[i*n+j] -= float64(f * w[k*n+j])
				dst.data[i*n+j] -= float64(f * dst.data[k*n+j])
			}
		}
	}
	return det, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
