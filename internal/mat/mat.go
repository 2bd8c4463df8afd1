// Package mat implements a small dense matrix library sufficient for Kalman
// filtering: construction, arithmetic, transposition, LU and Cholesky
// decompositions, linear solves, inversion and a handful of norms.
//
// It plays the role the JAMA Java matrix package played in the original
// SIGMOD 2004 implementation of the Dual Kalman Filter.
//
// All matrices are dense, row-major, float64. Dimension mismatches are
// programmer errors and panic with a descriptive message, mirroring the
// convention of gonum and the Go standard library (e.g. slice bounds).
// Numerical failures that depend on data values (singular systems,
// non-positive-definite inputs) are reported as errors.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
// The zero value is an empty 0x0 matrix; use New or the other constructors.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// New returns a zeroed r x c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromSlice returns an r x c matrix backed by a copy of data, which must be
// row-major and of length r*c.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d*%d", len(data), r, c))
	}
	m := New(r, c)
	copy(m.data, data)
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: FromRows ragged input: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with vals on the diagonal.
func Diag(vals ...float64) *Matrix {
	m := New(len(vals), len(vals))
	for i, v := range vals {
		m.data[i*len(vals)+i] = v
	}
	return m
}

// ScaledIdentity returns s * I(n). Commonly used for the paper's
// "diagonal matrices with value 0.05" process/measurement covariances.
func ScaledIdentity(n int, s float64) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = s
	}
	return m
}

// Vec returns a column vector (n x 1) holding vals.
func Vec(vals ...float64) *Matrix {
	m := New(len(vals), 1)
	copy(m.data, vals)
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites m's elements with src's. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom dimension mismatch %dx%d <- %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Col returns column j as a fresh slice.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range %dx%d", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Row returns row i as a fresh slice.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %dx%d", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// DataCopy returns the matrix contents as a fresh row-major slice of
// length Rows*Cols — the serialization form used by checkpoint and
// snapshot code. FromSlice is the inverse.
func (m *Matrix) DataCopy() []float64 {
	out := make([]float64, len(m.data))
	copy(out, m.data)
	return out
}

// VecSlice returns the contents of a column vector as a fresh slice.
// m must have exactly one column.
func (m *Matrix) VecSlice() []float64 {
	if m.cols != 1 {
		panic(fmt.Sprintf("mat: VecSlice on %dx%d, want n x 1", m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	copy(out, m.data)
	return out
}

// Raw returns m's row-major backing storage itself, not a copy: writes
// through it change m. It is the one raw-storage escape hatch, for
// fixed-size kernels that run on matrices of a known shape without the
// per-call dimension checks of the Into kernels (internal/kalman's n ≤ 2
// filters). Such a kernel must check the shape itself and must not keep
// the slice past the call, since Reshape may replace it.
func (m *Matrix) Raw() []float64 { return m.data }

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	sameDims("Add", a, b)
	return AddInto(New(a.rows, a.cols), a, b)
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	sameDims("Sub", a, b)
	return SubInto(New(a.rows, a.cols), a, b)
}

// AddInPlace sets a = a + b and returns a.
func AddInPlace(a, b *Matrix) *Matrix {
	sameDims("AddInPlace", a, b)
	for i := range a.data {
		a.data[i] += b.data[i]
	}
	return a
}

// sameDims keeps the panic formatting in a cold helper so the guard
// itself inlines into the element-wise kernels (see checkDst).
func sameDims(op string, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		badDims(op, a, b)
	}
}

func badDims(op string, a, b *Matrix) {
	panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
}

// Mul returns the matrix product a * b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	return MulInto(New(a.rows, b.cols), a, b)
}

// Mul3 returns a * b * c, associating whichever way costs fewer
// multiply-adds for the operand shapes. Ties keep the historical
// left-to-right association, so results stay bit-identical for the
// symmetric-cost products of the Kalman recursions.
func Mul3(a, b, c *Matrix) *Matrix {
	if mul3RightFirst(a, b, c) {
		return Mul(a, Mul(b, c))
	}
	return Mul(Mul(a, b), c)
}

// Scale returns s * a.
func Scale(s float64, a *Matrix) *Matrix {
	return ScaleInto(New(a.rows, a.cols), s, a)
}

// Transpose returns a-transpose.
func Transpose(a *Matrix) *Matrix {
	return TransposeInto(New(a.cols, a.rows), a)
}

// Symmetrize returns (a + a^T)/2. Used to keep covariance matrices
// numerically symmetric across many filter iterations.
func Symmetrize(a *Matrix) *Matrix {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Symmetrize on non-square %dx%d", a.rows, a.cols))
	}
	return SymmetrizeInto(New(a.rows, a.cols), a)
}

// Trace returns the sum of diagonal elements of a square matrix.
func Trace(a *Matrix) float64 {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Trace on non-square %dx%d", a.rows, a.cols))
	}
	var t float64
	for i := 0; i < a.rows; i++ {
		t += a.data[i*a.cols+i]
	}
	return t
}

// FrobeniusNorm returns sqrt(sum a_ij^2).
func FrobeniusNorm(a *Matrix) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns max |a_ij|, the element-wise infinity norm.
func MaxAbs(a *Matrix) float64 {
	var mx float64
	for _, v := range a.data {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	return mx
}

// Equal reports whether a and b have identical dimensions and elements.
func Equal(a, b *Matrix) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether a and b have identical dimensions and all
// elements within tol of each other.
func ApproxEqual(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element is finite (no NaN or Inf).
func IsFinite(a *Matrix) bool {
	for _, v := range a.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders the matrix with aligned columns, for debugging and logs.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", m.data[i*m.cols+j])
		}
	}
	b.WriteByte(']')
	return b.String()
}
