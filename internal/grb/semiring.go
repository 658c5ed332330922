package grb

// Monoid is a commutative, associative binary operator with an identity,
// used for reductions and as the additive component of a semiring.
type Monoid[T Number] struct {
	Identity T
	Op       func(T, T) T
}

// Semiring pairs an additive monoid with a multiplicative operator, per the
// GraphBLAS mathematical specification.  MxM/MxV over a semiring compute
//
//	c_ij = Add_k ( Mul(a_ik, b_kj) )
//
// where the Add reduction starts from the monoid identity and only stored
// entries participate (the implicit zero is the monoid identity, as in
// GraphBLAS).
type Semiring[T Number] struct {
	Add Monoid[T]
	Mul func(T, T) T
}

// PlusMonoid is ordinary addition with identity 0.
func PlusMonoid[T Number]() Monoid[T] {
	return Monoid[T]{Identity: 0, Op: func(a, b T) T { return a + b }}
}

// PlusTimes is the conventional arithmetic semiring (+, *); walk counting
// over adjacency matrices uses this.
func PlusTimes[T Number]() Semiring[T] {
	return Semiring[T]{Add: PlusMonoid[T](), Mul: func(a, b T) T { return a * b }}
}
