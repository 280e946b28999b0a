package graphio

import (
	"bufio"
	"fmt"
	"io"

	"ipregel/internal/graph"
)

// METIS graph format support. METIS files describe undirected graphs:
// a header "n m" followed by n lines, line i listing the (1-indexed)
// neighbours of vertex i; every edge appears in both endpoint lines and m
// counts each undirected edge once. The format is ubiquitous in the
// partitioning literature, and graph frameworks are routinely fed METIS
// inputs, so the release supports it alongside the paper's KONECT/DIMACS
// formats.

// ReadMETIS parses a METIS file into a directed graph containing both
// orientations of every edge (i.e. a symmetric graph).
func ReadMETIS(r io.Reader, opts Options) (*graph.Graph, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.KeepWeights {
		return nil, fmt.Errorf("graphio: METIS weight flags are not supported")
	}
	lr := newLines(r, "METIS")
	next := func() ([]byte, bool) {
		for lr.next() {
			if len(lr.text) == 0 && lr.n > 1 {
				// blank data lines are vertices with no neighbours
				return nil, true
			}
			if len(lr.text) > 0 && lr.text[0] == '%' {
				continue
			}
			return lr.text, true
		}
		return nil, false
	}

	header, ok := next()
	if !ok {
		if err := lr.err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("graphio: METIS input empty")
	}
	var n int
	var m uint64
	if _, err := fmt.Sscanf(string(header), "%d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graphio: METIS header %q: %w", header, err)
	}
	if n < 0 {
		return nil, fmt.Errorf("graphio: METIS header declares negative vertex count %d", n)
	}
	if err := opts.checkCount(uint64(n)); err != nil {
		return nil, err
	}
	var b graph.Builder
	applyOpts(&b, opts)
	b.ForceN = n
	b.SetBase(1)
	b.Grow(opts.growHint(2 * m))
	var total uint64
	for u := 1; u <= n; u++ {
		text, ok := next()
		if !ok {
			if err := lr.err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("graphio: METIS input ends at vertex %d of %d", u, n)
		}
		for i := 0; i < len(text); {
			v, ni, err := parseUint(text, i)
			if err != nil {
				return nil, lr.fail(fmt.Errorf("vertex %d: %w", u, err))
			}
			i = ni
			if v < 1 || int(v) > n {
				return nil, lr.fail(fmt.Errorf("vertex %d lists out-of-range neighbour %d", u, v))
			}
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			total++
		}
	}
	if total != 2*m {
		return nil, fmt.Errorf("graphio: METIS header declares %d edges (%d endpoints), found %d endpoints", m, 2*m, total)
	}
	return b.Build()
}

// WriteMETIS encodes a symmetric graph in METIS format. The graph's edge
// count must be even and every edge must have its reverse present
// (METIS describes undirected graphs); Symmetrize first if needed.
func WriteMETIS(w io.Writer, g *graph.Graph) error {
	if g.M()%2 != 0 {
		return fmt.Errorf("graphio: METIS requires a symmetric graph (odd edge count %d)", g.M())
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()/2)
	var nb graph.NeighborBuf
	for u := 0; u < g.N(); u++ {
		for j, v := range g.OutNeighborsWith(&nb, u) {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d", uint64(v)+1); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
