package graphio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"ipregel/internal/graph"
)

// readEdgeList parses whitespace-separated "src dst [weight]" lines.
// Lines starting with '#' or '%' and blank lines are ignored; without
// Options.KeepWeights, extra columns (weights, timestamps) are ignored.
// With it, a missing weight column means weight 1, but a weight column
// that is present must parse.
func readEdgeList(r io.Reader, opts Options) (*graph.Graph, error) {
	var b graph.Builder
	var wb graph.WeightedBuilder
	if opts.KeepWeights {
		if opts.BuildInEdges {
			wb.BuildInEdges()
		}
	} else {
		applyOpts(&b, opts)
	}
	lr := newLines(r, "edge list")
	for lr.next() {
		text := lr.text
		if len(text) == 0 || text[0] == '#' || text[0] == '%' {
			continue
		}
		src, dst, i, err := parseEdge(text, 0)
		if err == nil {
			err = firstErr(opts.checkID(src), opts.checkID(dst))
		}
		if err != nil {
			return nil, lr.fail(err)
		}
		if !opts.KeepWeights {
			b.AddEdge(src, dst)
			continue
		}
		w := uint32(1)
		if i = skipBlanks(text, i); i < len(text) {
			if w, _, err = parseUint(text, i); err != nil {
				return nil, lr.fail(fmt.Errorf("weight: %w", err))
			}
		}
		wb.AddEdge(src, dst, w)
	}
	if err := lr.err(); err != nil {
		return nil, err
	}
	if opts.KeepWeights {
		return wb.Build()
	}
	return b.Build()
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readKONECT parses the KONECT TSV format. The first '%' header line may
// declare "sym" (undirected) or "asym"/"bip" (directed); subsequent '%'
// lines are comments. Data lines are "src dst [weight [time]]".
func readKONECT(r io.Reader, opts Options) (*graph.Graph, error) {
	var b graph.Builder
	applyOpts(&b, opts)
	lr := newLines(r, "KONECT")
	sawHeader := false
	for lr.next() {
		text := lr.text
		if len(text) == 0 {
			continue
		}
		if text[0] == '%' {
			if !sawHeader {
				sawHeader = true
				if !opts.Undirected && bytes.Contains(text, []byte("sym")) && !bytes.Contains(text, []byte("asym")) {
					b.Undirected()
				}
			}
			continue
		}
		src, dst, _, err := parseEdge(text, 0)
		if err == nil {
			err = firstErr(opts.checkID(src), opts.checkID(dst))
		}
		if err != nil {
			return nil, lr.fail(err)
		}
		b.AddEdge(src, dst)
	}
	if err := lr.err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// readDIMACS parses the DIMACS challenge-9 .gr format used by the USA road
// network: "c" comment lines, one "p sp <n> <m>" problem line, and
// "a <src> <dst> <weight>" arc lines. Edge weights are ignored (the paper's
// SSSP assumes unit weights, §4 footnote 1) unless Options.KeepWeights is
// set; either way a weight must fit in 32 bits. Vertex identifiers are
// 1-based, exactly the case that motivates the paper's offset and
// desolate-memory mappings (§5).
func readDIMACS(r io.Reader, opts Options) (*graph.Graph, error) {
	var b graph.Builder
	var wb graph.WeightedBuilder
	if opts.KeepWeights {
		if opts.BuildInEdges {
			wb.BuildInEdges()
		}
	} else {
		applyOpts(&b, opts)
	}
	lr := newLines(r, "DIMACS")
	declaredN := 0
	declaredM := uint64(0)
	seenP := false
	arcs := uint64(0)
	for lr.next() {
		text := lr.text
		if len(text) == 0 {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			if seenP {
				return nil, lr.fail(errors.New("duplicate problem line"))
			}
			seenP = true
			var kind string
			if _, err := fmt.Sscanf(string(text), "p %s %d %d", &kind, &declaredN, &declaredM); err != nil {
				return nil, lr.fail(fmt.Errorf("bad problem line: %w", err))
			}
			if declaredN < 0 {
				return nil, lr.fail(fmt.Errorf("negative vertex count %d", declaredN))
			}
			if err := opts.checkCount(uint64(declaredN)); err != nil {
				return nil, lr.fail(err)
			}
			if opts.KeepWeights {
				wb.ForceN(declaredN)
				wb.SetBase(1)
				wb.Grow(opts.growHint(declaredM))
			} else {
				b.ForceN = declaredN
				b.SetBase(1)
				b.Grow(opts.growHint(declaredM))
			}
		case 'a':
			if !seenP {
				return nil, lr.fail(errors.New("arc before problem line"))
			}
			if len(text) < 2 || !isBlank(text[1]) {
				return nil, lr.fail(fmt.Errorf("bad arc %q", text))
			}
			s, d, i, err := parseEdge(text, 1)
			var w uint32
			if err == nil {
				w, _, err = parseUint(text, i)
			}
			if err != nil {
				return nil, lr.fail(fmt.Errorf("bad arc: %w", err))
			}
			if err := firstErr(opts.checkID(s), opts.checkID(d)); err != nil {
				return nil, lr.fail(err)
			}
			if opts.KeepWeights {
				wb.AddEdge(s, d, w)
			} else {
				b.AddEdge(s, d)
			}
			arcs++
		default:
			return nil, lr.fail(fmt.Errorf("unknown record %q", text[0]))
		}
	}
	if err := lr.err(); err != nil {
		return nil, err
	}
	if !seenP {
		return nil, fmt.Errorf("graphio: DIMACS input has no problem line")
	}
	if arcs != declaredM {
		return nil, fmt.Errorf("graphio: DIMACS declared %d arcs, found %d", declaredM, arcs)
	}
	if opts.KeepWeights {
		return wb.Build()
	}
	return b.Build()
}

func writeDIMACS(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "c generated by ipregel graphio")
	// DIMACS is 1-based: shift so the smallest written identifier is 1.
	fmt.Fprintf(bw, "p sp %d %d\n", g.N(), g.M())
	var werr error
	if g.HasWeights() {
		var nb graph.NeighborBuf
		for u := 0; u < g.N() && werr == nil; u++ {
			adj, ws := g.OutEdgesWeightedWith(&nb, u)
			for j, d := range adj {
				if _, werr = fmt.Fprintf(bw, "a %d %d %d\n", u+1, uint64(d)+1, ws[j]); werr != nil {
					break
				}
			}
		}
	} else {
		g.Edges(func(s, d graph.VertexID) bool {
			_, werr = fmt.Fprintf(bw, "a %d %d 1\n", uint64(s)+1, uint64(d)+1)
			return werr == nil
		})
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// lines is the one line loop every text reader shares. Each line is
// trimmed of surrounding white space and handed out as a slice of the
// scanner's buffer, valid until the next call to next, so reading makes
// no per-line string.
type lines struct {
	sc     *bufio.Scanner
	format string // names the format in errors
	n      int    // 1-based number of the current line
	text   []byte
}

func newLines(r io.Reader, format string) *lines {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &lines{sc: sc, format: format}
}

func (l *lines) next() bool {
	if !l.sc.Scan() {
		return false
	}
	l.n++
	l.text = bytes.TrimSpace(l.sc.Bytes())
	return true
}

// err reports a read error of the underlying reader (nil at clean EOF).
func (l *lines) err() error { return l.sc.Err() }

// fail wraps err with the format name and the current line number.
func (l *lines) fail(err error) error {
	return fmt.Errorf("graphio: %s line %d: %w", l.format, l.n, err)
}

// parseEdge parses the "src dst" fields starting at b[i] and returns the
// index just past dst. Further columns are left to the caller.
func parseEdge(b []byte, i int) (src, dst graph.VertexID, next int, err error) {
	s, i, err := parseUint(b, i)
	if err != nil {
		return 0, 0, i, err
	}
	d, i, err := parseUint(b, i)
	if err != nil {
		return 0, 0, i, err
	}
	return graph.VertexID(s), graph.VertexID(d), i, nil
}

func isBlank(c byte) bool { return c == ' ' || c == '\t' }

func skipBlanks(b []byte, i int) int {
	for i < len(b) && isBlank(b[i]) {
		i++
	}
	return i
}

// parseUint parses the decimal field at b[i], after any blanks, and
// returns its value and the index just past its last digit. Identifiers
// and weights are both 32-bit, so a larger value is an error. It is the
// one integer parser of every text record; errors name the bad token.
func parseUint(b []byte, i int) (uint32, int, error) {
	i = skipBlanks(b, i)
	if i >= len(b) {
		return 0, i, errors.New("expected integer, found end of line")
	}
	if b[i] < '0' || b[i] > '9' {
		return 0, i, fmt.Errorf("expected integer, found %q", token(b, i))
	}
	start := i
	var v uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + uint64(b[i]-'0')
		if v > math.MaxUint32 {
			return 0, i, fmt.Errorf("integer %q overflows 32 bits", token(b, start))
		}
		i++
	}
	return uint32(v), i, nil
}

// token returns the blank-delimited field starting at b[i], for errors.
func token(b []byte, i int) string {
	j := i
	for j < len(b) && !isBlank(b[j]) {
		j++
	}
	return string(b[i:j])
}
