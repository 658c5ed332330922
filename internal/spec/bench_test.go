package spec

import "testing"

// BenchmarkSpecBuild times a cold Spec.Build, factor generation and
// statistics included: the Table I selfloop product on a fresh seed
// per iteration (the shape of perfbench's table1-ndjson cache fill),
// chain-bin's two-level chain, and the largest scale-free factor
// inside MaxFactorSize.
func BenchmarkSpecBuild(b *testing.B) {
	for _, c := range []struct {
		name     string
		factors  []string
		seedStep int64
	}{
		{"unicode", []string{"unicode"}, 1},
		{"chain-bin", []string{"sf48x96x240", "crown4"}, 0},
		{"sf4000x4000x65536", []string{"sf4000x4000x65536"}, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := Spec{Factors: c.factors, Mode: ModeSelfLoop, Seed: DefaultSeed + c.seedStep*int64(i)}
				if _, err := s.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
