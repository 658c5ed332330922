package core

import "testing"

// NamedProduct is a test product with its name, for this package's
// external tests.
type NamedProduct struct {
	Name string
	P    *Product
}

// ChainOracleProducts builds every chainOracleCases product, in the
// cases' order.
func ChainOracleProducts(tb testing.TB) []NamedProduct {
	tb.Helper()
	var out []NamedProduct
	for _, c := range chainOracleCases() {
		mk := NewChain
		if !c.strict {
			mk = NewChainRelaxed
		}
		p, err := mk(c.a, c.mode, c.bs...)
		if err != nil {
			tb.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, NamedProduct{c.name, p})
	}
	return out
}
