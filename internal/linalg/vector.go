package linalg

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; this is the hot loop of projection, so it is not checked.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v []float64) float64 {
	var ss float64
	for _, x := range v {
		ss += float64(x * x)
	}
	return math.Sqrt(ss)
}

// Normalize scales v in place to unit length and returns its original norm.
// A zero vector is left unchanged and 0 is returned.
func Normalize(v []float64) float64 {
	n := Norm(v)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// AxpyInPlace computes y += a*x in place.
func AxpyInPlace(y []float64, a float64, x []float64) {
	for i, xv := range x {
		y[i] += float64(a * xv)
	}
}

// Sub returns a-b as a new slice.
func Sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Add returns a+b as a new slice.
func Add(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += float64(d * d)
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 { return math.Sqrt(SqDist(a, b)) }

// CosAngle returns the cosine of the angle between a and b, or 0 when either
// vector is zero.
func CosAngle(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// MinMax returns the minimum and maximum of v. It panics on empty input.
func MinMax(v []float64) (min, max float64) {
	min, max = v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
