package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"iaclan/internal/cmplxmat"
)

// Closed forms for the paper's 2-antenna nodes. With M = 2 every kernel
// the role-assignment search runs per candidate is a 2x2 problem, so
// zero-forcing, the chain's dependent direction and the triangle's
// eigenvector are solved directly instead of through the general
// routines (Jacobi SVD, polynomial interpolation plus Durand-Kerner,
// Faddeev-LeVerrier plus null space). M >= 3 keeps the general routines,
// which FuzzPlanKernels2x2 also uses as the oracle for these.

// entries2 returns the entries of a 2x2 matrix in row-major order.
func entries2(m *cmplxmat.Matrix) (m00, m01, m10, m11 complex128) {
	return m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1)
}

// det2 returns det[u, v] of the 2x2 matrix with columns u and v.
func det2(u0, u1, v0, v1 complex128) complex128 {
	return u0*v1 - u1*v0
}

// zfDecoding2WS is zfDecodingVectorWS for M = 2 and at least two
// interferers. It nulls the principal eigenvector u of the interference
// Gram Σ i·iᴴ = [[a, b], [b*, d]]; in two dimensions what is left is the
// line u⊥ = (-u1*, u0*), so the decoding vector is u⊥ with the phase of
// its projection u⊥ᴴs = det[u, s]. Zero interference gives the matched
// filter, and a signal within 1e-9 of the nulled line gives nil, as in
// the general routine.
func zfDecoding2WS(ws *cmplxmat.Workspace, sigDir cmplxmat.Vector, interf []cmplxmat.Vector) cmplxmat.Vector {
	sNorm := sigDir.Norm()
	if sNorm == 0 {
		return nil
	}
	var a, d float64
	var b complex128
	for _, i := range interf {
		a += cmplxAbs2(i[0])
		d += cmplxAbs2(i[1])
		b += i[0] * cmplx.Conj(i[1])
	}
	if a == 0 && d == 0 {
		return sigDir.NormalizeWS(ws) // matched filter: no interference
	}
	// Principal eigenvector of [[a, b], [b*, d]] with h = (a-d)/2 and
	// r = sqrt(h² + |b|²): λ = (a+d)/2 + r. Of the two equivalent forms
	// (λ-d, b*) and (b, λ-a) take the one without cancellation.
	h := (a - d) / 2
	r := math.Sqrt(h*h + cmplxAbs2(b))
	var u0, u1 complex128
	switch {
	case r == 0:
		u0, u1 = 1, 0 // isotropic Gram: every direction is principal
	case h >= 0:
		u0, u1 = complex(h+r, 0), cmplx.Conj(b)
	default:
		u0, u1 = b, complex(r-h, 0)
	}
	uNorm := math.Sqrt(cmplxAbs2(u0) + cmplxAbs2(u1))
	c := det2(u0, u1, sigDir[0], sigDir[1])
	cAbs := cmplx.Abs(c)
	if cAbs/uNorm < 1e-9*sNorm {
		return nil
	}
	// w = u⊥·c/|u|², normalized: u⊥·c/(|u|·|c|).
	f := c / complex(uNorm*cAbs, 0)
	w := ws.Vector(2)
	w[0] = -cmplx.Conj(u1) * f
	w[1] = cmplx.Conj(u0) * f
	return w
}

// dkStart1 and dkStart2 are the first two Durand-Kerner starting values
// Poly.Roots uses: powers of 0.4+0.9i, computed the same way.
var (
	dkStart1 = complex(0.4, 0.9)
	dkStart2 = dkStart1 * dkStart1
)

// dependentOnLine2WS is the line solver for m = 2. Along d = x + t·y,
// det[G₁d, G₂d] is the quadratic c₀ + c₁t + c₂t² with
// c₀ = det[G₁x, G₂x], c₁ = det[G₁x, G₂y] + det[G₁y, G₂x] and
// c₂ = det[G₁y, G₂y], so its coefficients are computed directly and its
// roots taken by the quadratic formula. The degree is trimmed, and the
// roots tried in order and screened, as dependentOnLineDKWS does.
func dependentOnLine2WS(ws *cmplxmat.Workspace, g []*cmplxmat.Matrix, x, y cmplxmat.Vector) cmplxmat.Vector {
	a00, a01, a10, a11 := entries2(g[0])
	b00, b01, b10, b11 := entries2(g[1])
	ax0, ax1 := a00*x[0]+a01*x[1], a10*x[0]+a11*x[1]
	ay0, ay1 := a00*y[0]+a01*y[1], a10*y[0]+a11*y[1]
	bx0, bx1 := b00*x[0]+b01*x[1], b10*x[0]+b11*x[1]
	by0, by1 := b00*y[0]+b01*y[1], b10*y[0]+b11*y[1]
	poly := cmplxmat.Poly{
		det2(ax0, ax1, bx0, bx1),
		det2(ax0, ax1, by0, by1) + det2(ay0, ay1, bx0, bx1),
		det2(ay0, ay1, by0, by1),
	}
	var roots [2]complex128
	var n int
	switch poly.Degree(1e-13) {
	case 2:
		roots, n = quadraticRootsDK(poly[1]/poly[2], poly[0]/poly[2]), 2
	case 1:
		roots[0], n = -poly[0]/poly[1], 1
	default:
		return nil // constant along the line: no roots
	}
	for _, t := range roots[:n] {
		d := ws.Vector(2)
		d[0], d[1] = x[0]+t*y[0], x[1]+t*y[1]
		if d = dependentAt(ws, g, d); d != nil {
			return d
		}
	}
	return nil
}

// quadraticRootsDK returns the roots of z² + p·z + q in the order
// Poly.Roots (Durand-Kerner) returns them. After its first Weierstrass
// step the two estimates sum to -p exactly, and from there the
// iteration is Newton's method on u² = δ² for the offset u from the
// roots' midpoint, whose basins are the half-planes either side of the
// perpendicular bisector of the roots. The first estimate, started at
// s₁, therefore converges to the root nearest its first update
// z₁ = s₁ - P(s₁)/(s₁ - s₂).
func quadraticRootsDK(p, q complex128) [2]complex128 {
	// Cancellation-free form: r₁ = -(p ± √(p²-4q))/2 with the sign that
	// makes |r₁| the larger, r₂ = q/r₁.
	sq := cmplx.Sqrt(p*p - 4*q)
	if real(sq)*real(p)+imag(sq)*imag(p) < 0 {
		sq = -sq
	}
	r1 := -(p + sq) / 2
	r2 := complex(0, 0)
	if r1 != 0 {
		r2 = q / r1
	}
	z1 := dkStart1 - (dkStart1*dkStart1+p*dkStart1+q)/(dkStart1-dkStart2)
	if cmplxAbs2(r2-z1) < cmplxAbs2(r1-z1) {
		r1, r2 = r2, r1
	}
	return [2]complex128{r1, r2}
}

// eigenvector2WS returns the eigenvector of the 2x2 matrix m for its
// eigenvalue of largest magnitude — the choice AnyEigenvectorWS makes —
// with eigenvalues λ = tr/2 ± √(tr²/4 - det). Of the two null vectors of
// m - λI, (m01, λ-m00) and (λ-m11, m10), it takes the longer; a scalar
// matrix, where both vanish, gets e₀. The returned vector is unit norm
// and workspace-backed.
func eigenvector2WS(ws *cmplxmat.Workspace, m *cmplxmat.Matrix) (complex128, cmplxmat.Vector, error) {
	m00, m01, m10, m11 := entries2(m)
	half := (m00 + m11) / 2
	disc := cmplx.Sqrt((m00-m11)*(m00-m11)/4 + m01*m10)
	if real(disc)*real(half)+imag(disc)*imag(half) < 0 {
		disc = -disc
	}
	lambda := half + disc
	if cmplx.IsNaN(lambda) || cmplx.IsInf(lambda) {
		return 0, nil, fmt.Errorf("%w: non-finite eigenvalue", ErrInfeasible)
	}
	p0, p1 := m01, lambda-m00
	q0, q1 := lambda-m11, m10
	v := ws.Vector(2)
	switch pn, qn := cmplxAbs2(p0)+cmplxAbs2(p1), cmplxAbs2(q0)+cmplxAbs2(q1); {
	case pn == 0 && qn == 0:
		v[0] = 1
		return lambda, v, nil
	case pn >= qn:
		v[0], v[1] = p0, p1
	default:
		v[0], v[1] = q0, q1
	}
	return lambda, v.NormalizeWS(ws), nil
}
