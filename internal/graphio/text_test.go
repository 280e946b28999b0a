package graphio

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

// encode returns g's binary encoding (base, sizes, adjacency and
// weights), so two graphs compare equal exactly when their encodings do.
func encode(t testing.TB, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTextAcceptSet pins what the byte-level line scanner accepts: each
// input must read to exactly the graph its plain form reads to.
func TestTextAcceptSet(t *testing.T) {
	weighted := Options{KeepWeights: true}
	cases := []struct {
		name   string
		format Format
		opts   Options
		in     string
		plain  string
	}{
		{"edge list CRLF", FormatEdgeList, Options{}, "1 2\r\n2 3\r\n", "1 2\n2 3\n"},
		{"edge list tabs", FormatEdgeList, Options{}, "1\t2\n2\t\t3\n", "1 2\n2 3\n"},
		{"edge list blanks", FormatEdgeList, Options{}, "  1 2  \n\t2  3\t\n", "1 2\n2 3\n"},
		{"edge list extra columns", FormatEdgeList, Options{}, "1 2 5 77\n2 3 x\n", "1 2\n2 3\n"},
		{"edge list comments", FormatEdgeList, Options{}, "# c\n\n% c\n1 2\n\n2 3\n# end\n", "1 2\n2 3\n"},
		{"edge list digits then junk", FormatEdgeList, Options{}, "1 2x\n", "1 2\n"},
		{"edge list weighted CRLF", FormatEdgeList, weighted, "1 2 5\r\n2 3\r\n", "1 2 5\n2 3 1\n"},
		{"edge list weighted blanks", FormatEdgeList, weighted, " 1\t2\t5 \n2 3 \t\n", "1 2 5\n2 3 1\n"},
		{"edge list weighted extra columns", FormatEdgeList, weighted, "1 2 5 1234567890\n", "1 2 5\n"},
		{"KONECT CRLF", FormatKONECT, Options{}, "% sym\r\n1 2\r\n", "% sym\n1 2\n"},
		{"KONECT tabs", FormatKONECT, Options{}, "% asym\n1\t2\n", "% asym\n1 2\n"},
		{"KONECT blanks", FormatKONECT, Options{}, "  % asym \n 1 2 \n", "% asym\n1 2\n"},
		{"KONECT timestamps", FormatKONECT, Options{}, "% asym\n1 2 1 1234567890\n2 3 1 99999999999\n", "% asym\n1 2\n2 3\n"},
		{"KONECT comments", FormatKONECT, Options{}, "% sym\n% 2 3\n\n1 2\n\n", "% sym\n1 2\n"},
		{"DIMACS CRLF", FormatDIMACS, Options{}, "p sp 3 2\r\na 1 2 7\r\na 2 3 9\r\n", "p sp 3 2\na 1 2 7\na 2 3 9\n"},
		{"DIMACS tabs", FormatDIMACS, weighted, "p sp 3 2\na\t1\t2\t7\na 2\t\t3 9\n", "p sp 3 2\na 1 2 7\na 2 3 9\n"},
		{"DIMACS blanks", FormatDIMACS, weighted, " p sp 3 2\n  a 1  2 7 \n\ta 2 3 9\t\n", "p sp 3 2\na 1 2 7\na 2 3 9\n"},
		{"DIMACS extra columns", FormatDIMACS, weighted, "p sp 3 2\na 1 2 7 8\na 2 3 9x\n", "p sp 3 2\na 1 2 7\na 2 3 9\n"},
		{"DIMACS comments", FormatDIMACS, Options{}, "c top\n\np sp 3 2\nc mid\na 1 2 7\n\na 2 3 9\nc end\n", "p sp 3 2\na 1 2 7\na 2 3 9\n"},
		{"DIMACS leading zeros", FormatDIMACS, weighted, "p sp 3 1\na 001 02 0007\n", "p sp 3 1\na 1 2 7\n"},
		{"METIS CRLF", FormatMETIS, Options{}, "3 2\r\n2 3\r\n1\r\n1\r\n", "3 2\n2 3\n1\n1\n"},
		{"METIS tabs and blanks", FormatMETIS, Options{}, " 3 2 \n2\t3 \n 1\n1\t\n", "3 2\n2 3\n1\n1\n"},
		{"METIS comments", FormatMETIS, Options{}, "% c\n3 2\n% c\n2 3\n1\n1\n", "3 2\n2 3\n1\n1\n"},
		{"METIS blank line is isolated vertex", FormatMETIS, Options{}, "3 1\n2\n1\n\n", "3 1\n2\n1\n \n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Read(strings.NewReader(tc.in), tc.format, tc.opts)
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			want, err := Read(strings.NewReader(tc.plain), tc.format, tc.opts)
			if err != nil {
				t.Fatalf("plain form rejected: %v", err)
			}
			if encode(t, got) != encode(t, want) {
				t.Fatalf("%q and %q read to different graphs", tc.in, tc.plain)
			}
		})
	}
}

// TestTextRejectSet pins malformed records every reader keeps rejecting.
func TestTextRejectSet(t *testing.T) {
	cases := []struct {
		name   string
		format Format
		in     string
	}{
		{"edge list sign", FormatEdgeList, "-1 2\n"},
		{"edge list glued fields", FormatEdgeList, "1x 2\n"},
		{"edge list vertical tab", FormatEdgeList, "1\v2\n"},
		{"KONECT letters", FormatKONECT, "% asym\nabc def\n"},
		{"DIMACS no blank after a", FormatDIMACS, "p sp 2 1\na1 2 3\n"},
		{"DIMACS missing weight", FormatDIMACS, "p sp 2 1\na 1 2\n"},
		{"DIMACS signed weight", FormatDIMACS, "p sp 2 1\na 1 2 +3\n"},
		{"DIMACS glued fields", FormatDIMACS, "p sp 2 1\na 1x 2 3\n"},
	}
	for _, tc := range cases {
		if _, err := Read(strings.NewReader(tc.in), tc.format, Options{}); err == nil {
			t.Errorf("%s: %q accepted", tc.name, tc.in)
		}
	}
}

// TestTextErrorsNameTheLine pins that every per-record check reports the
// line it failed on.
func TestTextErrorsNameTheLine(t *testing.T) {
	capped := Options{MaxVertices: 1000}
	cases := []struct {
		name   string
		format Format
		opts   Options
		in     string
		want   string
	}{
		{"DIMACS arc before problem line", FormatDIMACS, Options{}, "c\na 1 2 3\n", "DIMACS line 2: arc before problem line"},
		{"DIMACS duplicate problem line", FormatDIMACS, Options{}, "p sp 1 0\nc\np sp 1 0\n", "DIMACS line 3: duplicate problem line"},
		{"DIMACS unknown record", FormatDIMACS, Options{}, "p sp 1 0\nz 1\n", "DIMACS line 2: unknown record"},
		{"DIMACS identifier overflow", FormatDIMACS, Options{}, "p sp 3 1\n\na 4294967297 2 1\n", "DIMACS line 3:"},
		{"DIMACS MaxVertices id", FormatDIMACS, capped, "p sp 3 1\na 1 2000 1\n", "DIMACS line 2:"},
		{"DIMACS MaxVertices count", FormatDIMACS, capped, "c\np sp 2000 0\n", "DIMACS line 2:"},
		{"DIMACS bad problem line", FormatDIMACS, Options{}, "p sp x 0\n", "DIMACS line 1: bad problem line"},
		{"edge list identifier overflow", FormatEdgeList, Options{}, "1 2\n1 99999999999\n", "edge list line 2:"},
		{"edge list MaxVertices id", FormatEdgeList, capped, "# c\n1 2000\n", "edge list line 2:"},
		{"KONECT identifier overflow", FormatKONECT, Options{}, "% asym\n1 2\n4294967296 1\n", "KONECT line 3:"},
		{"KONECT MaxVertices id", FormatKONECT, capped, "% asym\n2000 1\n", "KONECT line 2:"},
		{"METIS identifier overflow", FormatMETIS, Options{}, "2 1\n2\n4294967296\n", "METIS line 3:"},
		{"METIS out-of-range neighbour", FormatMETIS, Options{}, "% c\n2 1\n3\n1\n", "METIS line 3: vertex 1 lists out-of-range neighbour 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in), tc.format, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want it to contain %q", err, tc.want)
			}
		})
	}
	_, err := Read(strings.NewReader("p sp 2 2\na 1 2 1\n"), FormatDIMACS, Options{})
	if err == nil || !strings.Contains(err.Error(), "declared 2 arcs, found 1") {
		t.Fatalf("arc count mismatch: %v", err)
	}
}

// TestTextGrowHintCap pins that a lying DIMACS arc count buys at most a
// MaxVertices-sized reservation before the count mismatch is reported.
func TestTextGrowHintCap(t *testing.T) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, err := Read(strings.NewReader("p sp 10 2000000\na 1 2 1\n"), FormatDIMACS, Options{MaxVertices: 1000})
	runtime.ReadMemStats(&ms1)
	if err == nil || !strings.Contains(err.Error(), "declared 2000000 arcs, found 1") {
		t.Fatalf("lying arc count: %v", err)
	}
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 4<<20 {
		t.Fatalf("lying arc count allocated %d bytes; growHint must cap it", grew)
	}
}

// TestTextRejectsBadWeightsAndTokens is the regression set for three
// inputs that used to load wrong: an over-32-bit DIMACS weight wrapped,
// a present but bad edge-list weight became 1, and a bad METIS token cut
// its line short and surfaced as an endpoint-count error.
func TestTextRejectsBadWeightsAndTokens(t *testing.T) {
	weighted := Options{KeepWeights: true}
	cases := []struct {
		name   string
		format Format
		opts   Options
		in     string
		want   string
	}{
		{"DIMACS weight overflow", FormatDIMACS, weighted, "p sp 2 1\na 1 2 4294967297\n", `DIMACS line 2: bad arc: integer "4294967297" overflows 32 bits`},
		{"DIMACS weight overflow unweighted", FormatDIMACS, Options{}, "p sp 2 1\na 1 2 4294967297\n", "DIMACS line 2:"},
		{"edge list weight overflow", FormatEdgeList, weighted, "1 2 7\n1 2 99999999999\n", `edge list line 2: weight: integer "99999999999" overflows 32 bits`},
		{"edge list malformed weight", FormatEdgeList, weighted, "1 2 x\n", `edge list line 1: weight: expected integer, found "x"`},
		{"edge list glued weight", FormatEdgeList, weighted, "1 2x\n", `edge list line 1: weight: expected integer, found "x"`},
		{"METIS bad token", FormatMETIS, Options{}, "3 2\n2 x 3\n1\n1\n", `METIS line 2: vertex 1: expected integer, found "x"`},
		{"METIS glued token", FormatMETIS, Options{}, "3 2\n2 3\n1y\n1\n", `METIS line 3: vertex 2: expected integer, found "y"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in), tc.format, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want it to contain %q", err, tc.want)
			}
		})
	}
	// The widest weight still fits, and only a missing column means 1.
	g, err := Read(strings.NewReader("p sp 2 1\na 1 2 4294967295\n"), FormatDIMACS, weighted)
	if err != nil {
		t.Fatal(err)
	}
	if _, ws := g.OutEdgesWeighted(0); ws[0] != 4294967295 {
		t.Fatalf("DIMACS weight %d, want 4294967295", ws[0])
	}
	g, err = Read(strings.NewReader("1 2 4294967295\n2 1\n"), FormatEdgeList, weighted)
	if err != nil {
		t.Fatal(err)
	}
	if _, ws := g.OutEdgesWeighted(0); ws[0] != 4294967295 {
		t.Fatalf("edge-list weight %d, want 4294967295", ws[0])
	}
	if _, ws := g.OutEdgesWeighted(1); ws[0] != 1 {
		t.Fatalf("edge-list weight %d for a missing column, want 1", ws[0])
	}
}

// textInput encodes an m-edge graph in format; METIS gets a symmetric
// graph with m directed edges.
func textInput(t testing.TB, format Format, m int) []byte {
	var g *graph.Graph
	if format == FormatMETIS {
		var b graph.Builder
		n := m / 2
		for u := 0; u < n; u++ {
			v := (u + 1) % n
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			b.AddEdge(graph.VertexID(v), graph.VertexID(u))
		}
		g = b.MustBuild()
	} else {
		g = randomGraph(1, m/2, m)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g, format); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTextReadAllocs is the allocation gate: the text readers make no
// per-record allocation, so doubling the edge count may only add the
// few allocations the builder's growing edge slices need.
func TestTextReadAllocs(t *testing.T) {
	cases := []struct {
		format Format
		opts   Options
	}{
		{FormatDIMACS, Options{}},
		{FormatDIMACS, Options{KeepWeights: true}},
		{FormatKONECT, Options{}},
		{FormatEdgeList, Options{}},
		{FormatEdgeList, Options{KeepWeights: true}},
		{FormatMETIS, Options{}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v/weights=%v", tc.format, tc.opts.KeepWeights), func(t *testing.T) {
			allocs := func(m int) float64 {
				data := textInput(t, tc.format, m)
				return testing.AllocsPerRun(5, func() {
					if _, err := Read(bytes.NewReader(data), tc.format, tc.opts); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(10000), allocs(20000)
			const bound, growth = 100, 16
			if small > bound || large > bound || large-small > growth {
				t.Fatalf("%v allocations at 10k edges, %v at 20k: want both <= %d and a difference <= %d",
					small, large, bound, growth)
			}
		})
	}
}

// BenchmarkRead reports parse throughput (MB/s of input text) of each
// text reader on the stand-in shapes: the road grid for DIMACS and METIS,
// RMAT for KONECT and the edge list.
func BenchmarkRead(b *testing.B) {
	road := gen.Road(gen.RoadParams{Rows: 300, Cols: 300})
	rmat := gen.RMAT(gen.DefaultRMAT(16, 8, 1))
	for _, bc := range []struct {
		format Format
		g      *graph.Graph
	}{
		{FormatDIMACS, road},
		{FormatKONECT, rmat},
		{FormatEdgeList, rmat},
		{FormatMETIS, road},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, bc.g, bc.format); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(bc.format.String(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Read(bytes.NewReader(data), bc.format, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
