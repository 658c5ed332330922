package grb_test

import (
	"fmt"

	"kronbip/internal/grb"
)

// ExampleKron demonstrates the paper's Def. 4 on a 2×2 pair.
func ExampleKron() {
	a, _ := grb.FromDense([][]int64{
		{0, 1},
		{1, 0},
	})
	b, _ := grb.FromDense([][]int64{
		{1, 0},
		{0, 2},
	})
	c, _ := grb.Kron(a, b)
	for _, row := range c.Dense() {
		fmt.Println(row)
	}
	// Output:
	// [0 0 1 0]
	// [0 0 0 2]
	// [1 0 0 0]
	// [0 2 0 0]
}

// ExampleKronExpr shows the fused sublinear reduction Σ(x⊗y) = Σx·Σy.
func ExampleKronExpr() {
	x := grb.LeafExpr([]int64{1, 2, 3})
	y := grb.LeafExpr([]int64{10, 20})
	e := grb.KronExpr(x, y)
	fmt.Println(e.Len(), e.At(3), e.Sum()) // slot 3 = x[1]*y[1]
	// Output:
	// 6 40 180
}
