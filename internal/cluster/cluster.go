// Package cluster implements the global Robins–Alexander bipartite
// clustering coefficient on explicit graphs, used when comparing against
// stochastic baseline generators.
package cluster

import (
	"fmt"

	"kronbip/internal/count"
	"kronbip/internal/graph"
)

// ThreePaths returns the number of 3-edge paths (P₄ subgraphs) in a
// bipartite graph: Σ_{(u,v)∈E} (d_u−1)(d_v−1).  The formula requires a
// triangle-free graph — in a bipartite graph the two end vertices of the
// path are forced onto different sides and cannot coincide.
func ThreePaths(g *graph.Graph) (int64, error) {
	if !g.IsBipartite() {
		return 0, fmt.Errorf("cluster: ThreePaths formula requires a bipartite graph")
	}
	var total int64
	g.EachEdge(func(u, v int) bool {
		total += int64(g.Degree(u)-1) * int64(g.Degree(v)-1)
		return true
	})
	return total, nil
}

// GlobalRobinsAlexander returns the global bipartite clustering coefficient
// of Robins–Alexander: 4·□(G) / L₃, the fraction of 3-paths that close into
// a 4-cycle.  Graphs with no 3-paths report 0.
func GlobalRobinsAlexander(g *graph.Graph) (float64, error) {
	l3, err := ThreePaths(g)
	if err != nil {
		return 0, err
	}
	if l3 == 0 {
		return 0, nil
	}
	c4, err := count.GlobalButterflies(g)
	if err != nil {
		return 0, err
	}
	return 4 * float64(c4) / float64(l3), nil
}
