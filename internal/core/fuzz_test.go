package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
)

// kernelInput decodes a fuzz input into complex entries: two bytes per
// entry (real and imaginary part as int8/16, so exact zeros, repeats and
// small integers are easy to reach), then, once raw runs out, CN(0,1)
// draws from seed.
type kernelInput struct {
	raw []byte
	rng *rand.Rand
}

func (in *kernelInput) next() complex128 {
	if len(in.raw) >= 2 {
		c := complex(float64(int8(in.raw[0]))/16, float64(int8(in.raw[1]))/16)
		in.raw = in.raw[2:]
		return c
	}
	return complex(in.rng.NormFloat64(), in.rng.NormFloat64()) / math.Sqrt2
}

func (in *kernelInput) vector() cmplxmat.Vector {
	return cmplxmat.Vector{in.next(), in.next()}
}

func (in *kernelInput) matrix() *cmplxmat.Matrix {
	return cmplxmat.FromRows([][]complex128{{in.next(), in.next()}, {in.next(), in.next()}})
}

// entryBytes encodes entries (multiples of 1/16 in [-8, 8)) as a fuzz
// input's raw bytes.
func entryBytes(entries ...complex128) []byte {
	var out []byte
	for _, c := range entries {
		out = append(out, byte(int8(real(c)*16)), byte(int8(imag(c)*16)))
	}
	return out
}

// Fuzz kernels: kernel%3 picks zero-forcing, the chain's dependent
// direction or the triangle eigenvector.
const (
	fuzzZF = iota
	fuzzDependent
	fuzzEigen
)

// FuzzPlanKernels2x2 holds each M = 2 closed form to the general routine
// it replaces, which stays in use for M >= 3:
//
//   - zero-forcing: both give nil, or their SINRs agree to 1e-9 relative
//     plus what the SVD route's own rounding allows. Where the
//     interference Gram's two eigenvalues are within 1e-6 of each other
//     its principal direction is not determined, and each result need
//     only be a valid least-squares nuller.
//   - dependent direction: on the same line both find a direction or
//     neither does, and it is the same root up to phase; the full search
//     then consumes the same random draws. Lines that do not decide
//     their direction with margin over the Durand-Kerner route's
//     rounding (settledLine) are exempt.
//   - triangle eigenvector: the same eigenvalue of largest magnitude
//     (either one where the two magnitudes tie), and an eigenvector of it.
func FuzzPlanKernels2x2(f *testing.F) {
	// Zero-forcing: zero interference, an isotropic Gram (a = d, b = 0),
	// rank-1 interference, and a signal inside the rank-1 interference.
	f.Add(uint8(fuzzZF), int64(1), entryBytes(1, 1i, 0, 0, 0, 0))
	f.Add(uint8(fuzzZF), int64(1), entryBytes(1, 1i, 1, 0, 0, 1))
	f.Add(uint8(fuzzZF+3), int64(1), entryBytes(1, 1i, 1, 1, 2, 2, -1i, -1i))
	f.Add(uint8(fuzzZF), int64(1), entryBytes(1, 1, 1, 1, 2, 2))
	f.Add(uint8(fuzzZF+6), int64(2), []byte{})
	// Dependent direction: c₂ = 0 (G₁y ∥ G₂y), a polynomial that vanishes
	// on every line (G₂ = 2G₁), and a double root (G₁⁻¹G₂ a Jordan block).
	f.Add(uint8(fuzzDependent), int64(3), entryBytes(1, 0, 0, 1, 1, 0, 0, 2, 0.5, 1, 1, 0))
	f.Add(uint8(fuzzDependent), int64(3), entryBytes(1, 0.5, 0, 1, 2, 1, 0, 2))
	f.Add(uint8(fuzzDependent), int64(4), entryBytes(1, 0, 0, 1, 1, 1, 0, 1))
	f.Add(uint8(fuzzDependent), int64(5), []byte{})
	// Triangle: a repeated eigenvalue (Jordan block), a scalar matrix,
	// eigenvalues of equal magnitude, and a generic matrix.
	f.Add(uint8(fuzzEigen), int64(6), entryBytes(1, 1, 0, 1))
	f.Add(uint8(fuzzEigen), int64(6), entryBytes(2, 0, 0, 2))
	f.Add(uint8(fuzzEigen), int64(6), entryBytes(0, 1, 1, 0))
	f.Add(uint8(fuzzEigen), int64(7), []byte{})
	f.Fuzz(func(t *testing.T, kernel uint8, seed int64, raw []byte) {
		in := &kernelInput{raw: raw, rng: rand.New(rand.NewSource(seed))}
		ws := cmplxmat.NewWorkspace()
		switch kernel % 3 {
		case fuzzZF:
			s := in.vector()
			interf := make([]cmplxmat.Vector, 2+int(kernel/3)%3)
			for i := range interf {
				interf[i] = in.vector()
			}
			checkZF2(t, ws, s, interf)
		case fuzzDependent:
			g := []*cmplxmat.Matrix{in.matrix(), in.matrix()}
			checkDependent2(t, ws, g, in.vector(), in.vector(), seed)
		case fuzzEigen:
			checkEigen2(t, ws, in.matrix())
		}
	})
}

func checkZF2(t *testing.T, ws *cmplxmat.Workspace, s cmplxmat.Vector, interf []cmplxmat.Vector) {
	got := zfDecoding2WS(ws, s, interf)
	want := zfDecodingVectorSVDWS(ws, s, interf, 2)
	if got == nil && want == nil {
		return
	}
	gram := cmplxmat.New(2, 2)
	for _, i := range interf {
		gram = gram.Add(i.Outer(i))
	}
	vals, vecs := gram.EigenHermitian()
	tie := vals[0]-vals[1] <= 1e-6*vals[0]
	// SINR at a noise floor of 1e-3 of the received power, so a decoder
	// that nulls the wrong direction shows.
	noise := 1e-3 * (s.Norm()*s.Norm() + vals[0] + vals[1])
	sinr := func(w cmplxmat.Vector) float64 {
		var interfPow float64
		for _, i := range interf {
			interfPow += cmplxAbs2(w.Dot(i))
		}
		return cmplxAbs2(w.Dot(s)) / (noise + interfPow)
	}
	for _, w := range []cmplxmat.Vector{got, want} {
		if w == nil {
			continue
		}
		if math.Abs(w.Norm()-1) > 1e-12 {
			t.Fatalf("decoding vector %v is not unit norm", w)
		}
		// A least-squares nuller leaves at most the weaker eigenvalue.
		var leftover float64
		for _, i := range interf {
			leftover += cmplxAbs2(w.Dot(i))
		}
		if leftover > vals[1]+1e-9*vals[0] && !tie {
			t.Fatalf("decoding vector %v leaves %g of interference, want %g (closed form %v, SVD %v)", w, leftover, vals[1], got, want)
		}
	}
	if tie {
		return
	}
	// The SVD route turns its decoding vector off the exact one in two
	// ways: its Jacobi sweeps stop at off-diagonal mass 1e-13 of the
	// Gram's scale, and it forms the vector as s minus its projection,
	// which cancels to a length of sine·‖s‖ and so loses about ε/sine of
	// direction. The closed form builds the vector on the exact null
	// line and loses neither. A turn of delta moves |wᴴs| by delta·‖s‖
	// and the leftover interference only to second order.
	u := vecs.Col(0)
	offAxis := cmplx.Abs(u[0]*s[1]-u[1]*s[0]) / s.Norm() // sine to the nulled direction
	jacobi := 1e-11 * vals[0] / (vals[0] - vals[1])
	if (got == nil) != (want == nil) {
		// Both return nil below a sine of 1e-9, and near that edge their
		// rounding may disagree.
		if offAxis < 0.5e-9-jacobi || offAxis > 2e-9+jacobi {
			t.Fatalf("closed form %v, SVD %v at sine %g to the principal direction", got, want, offAxis)
		}
		return
	}
	delta := jacobi + 1e-15/offAxis
	if a, b := sinr(got), sinr(want); math.Abs(a-b) > math.Max(a, b)*(1e-9+2*delta/offAxis) {
		t.Fatalf("SINR %g (closed form %v) vs %g (SVD %v)", a, got, b, want)
	}
}

// quadraticOnLine returns the coefficients of det[G₁d, G₂d] along
// d = x + t·y.
func quadraticOnLine(g []*cmplxmat.Matrix, x, y cmplxmat.Vector) [3]complex128 {
	ax, ay, bx, by := g[0].MulVec(x), g[0].MulVec(y), g[1].MulVec(x), g[1].MulVec(y)
	det := func(u, v cmplxmat.Vector) complex128 { return u[0]*v[1] - u[1]*v[0] }
	return [3]complex128{det(ax, bx), det(ax, by) + det(ay, bx), det(ay, by)}
}

// settledLine reports whether the line x + t·y decides its dependent
// direction with margin over the rounding of the Durand-Kerner route,
// whose interpolated coefficients carry errors of about 1e-13 of the
// column norms of the determinants it samples (at |t| <= 1.5). It needs c₂ well above that noise (otherwise
// the route may keep the degree at 2 on noise and find the root at
// infinity, the direction y), and for each root a direction that the
// noise turns by under 1e-7 and that passes or fails the 1e-7 rank
// screen by a factor of ten either way after that turn. Double roots,
// located to only √ε, and directions formed by heavy cancellation fail
// the first test; determinants that vanish on the whole line fail the
// c₂ test.
func settledLine(g []*cmplxmat.Matrix, x, y cmplxmat.Vector) bool {
	c := quadraticOnLine(g, x, y)
	noise := 1e-13 * (g[0].MulVec(x).Norm() + 1.5*g[0].MulVec(y).Norm()) * (g[1].MulVec(x).Norm() + 1.5*g[1].MulVec(y).Norm())
	if cmplx.Abs(c[2]) <= 10*noise {
		return false
	}
	gNorm := g[0].FrobeniusNorm() + g[1].FrobeniusNorm()
	for _, t := range quadraticRootsDK(c[1]/c[2], c[0]/c[2]) {
		at := cmplx.Abs(t)
		slope := cmplx.Abs(c[1] + 2*c[2]*t)
		d := x.Add(y.Scale(t))
		if slope == 0 || d.Norm() == 0 {
			return false
		}
		turn := noise * (1 + at + at*at) / slope * y.Norm() / d.Norm()
		if turn > 1e-7 {
			return false
		}
		d = d.Normalize()
		cols := cmplxmat.FromColumns(g[0].MulVec(d), g[1].MulVec(d))
		r, moved := singularRatio(cols), turn*gNorm/cols.FrobeniusNorm()
		if r+moved >= 1e-8 && r-moved <= 1e-6 {
			return false
		}
	}
	return true
}

// singularRatio returns σ₂/σ₁ of a 2x2 matrix (0 for the zero matrix).
func singularRatio(m *cmplxmat.Matrix) float64 {
	f2 := m.FrobeniusNorm() * m.FrobeniusNorm()
	if f2 == 0 {
		return 0
	}
	m00, m01, m10, m11 := entries2(m)
	det := cmplx.Abs(m00*m11 - m01*m10)
	s1sq := (f2 + math.Sqrt(math.Max(f2*f2-4*det*det, 0))) / 2
	return det / s1sq
}

func checkDependent2(t *testing.T, ws *cmplxmat.Workspace, g []*cmplxmat.Matrix, x, y cmplxmat.Vector, seed int64) {
	if settledLine(g, x, y) {
		got := dependentOnLine2WS(ws, g, x, y)
		want := dependentOnLineDKWS(ws, g, x, y)
		if (got == nil) != (want == nil) {
			t.Fatalf("on the line %v + t·%v the closed form found %v, Durand-Kerner %v", x, y, got, want)
		}
		if got != nil {
			if overlap := cmplx.Abs(got.Dot(want)); overlap < 1-1e-6 {
				t.Fatalf("on the line %v + t·%v the closed form found %v, Durand-Kerner %v (overlap %v)", x, y, got, want, overlap)
			}
		}
	}
	// The search draws its own lines: compare it when every line it
	// tries is settled.
	rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	dA, errA := searchDependentLines(ws, g, rngA, func(ws *cmplxmat.Workspace, g []*cmplxmat.Matrix, x, y cmplxmat.Vector) cmplxmat.Vector {
		if !settledLine(g, x, y) {
			t.Skip("the search tries a line that is not settled")
		}
		return dependentOnLine2WS(ws, g, x, y)
	})
	dB, errB := searchDependentLines(ws, g, rngB, dependentOnLineDKWS)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("search: closed form err %v, Durand-Kerner err %v", errA, errB)
	}
	if rngA.Int63() != rngB.Int63() {
		t.Fatal("the searches consumed different random draws")
	}
	if errA == nil && cmplx.Abs(dA.Dot(dB)) < 1-1e-6 {
		t.Fatalf("search: closed form direction %v, Durand-Kerner %v", dA, dB)
	}
}

func checkEigen2(t *testing.T, ws *cmplxmat.Workspace, m *cmplxmat.Matrix) {
	lambda, v, err := eigenvector2WS(ws, m)
	if err != nil {
		t.Fatalf("closed form failed on %v: %v", m, err)
	}
	scale := m.FrobeniusNorm()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Fatalf("eigenvector %v is not unit norm", v)
	}
	if r := m.MulVec(v).Sub(v.Scale(lambda)).Norm(); r > 1e-6*scale {
		t.Fatalf("‖Mv - λv‖ = %g for λ = %v, v = %v of %v", r, lambda, v, m)
	}
	if scale == 0 {
		return // zero matrix: every vector is an eigenvector of 0
	}
	vals, err := m.Eigenvalues()
	if err != nil {
		t.Fatalf("characteristic roots of %v: %v", m, err)
	}
	big, small := cmplx.Abs(vals[0]), cmplx.Abs(vals[1])
	if big < small {
		big, small = small, big
	}
	if cmplx.Abs(lambda) < big-1e-6*scale {
		t.Fatalf("closed form chose λ = %v, not of largest magnitude among %v", lambda, vals)
	}
	if big-small <= 1e-6*scale {
		return // magnitudes tie: either eigenvalue is the choice
	}
	wantLambda, wantV, err := m.AnyEigenvectorWS(ws)
	if err != nil {
		return
	}
	if cmplx.Abs(lambda-wantLambda) > 1e-9*scale {
		t.Fatalf("closed form chose λ = %v, AnyEigenvector %v", lambda, wantLambda)
	}
	if overlap := cmplx.Abs(v.Dot(wantV)); overlap < 1-1e-6 {
		t.Fatalf("closed form eigenvector %v, AnyEigenvector %v (overlap %v)", v, wantV, overlap)
	}
}
