package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
)

// deriveSeed mixes the run's seed with a per-input salt (splitmix64), so
// every input gets its own stream and no derived seed is 0, which the
// generators read as "use the preset's fixed seed".
func deriveSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// input is one generated graph file under the work directory.
type input struct {
	// file names the generator, its parameters and the seed it used, so
	// a file made from another seed never satisfies this one.
	file string
	// family globs every file of the same generator and parameters.
	family string
	format graphio.Format
	make   func() *graph.Graph
}

// ensure returns the input's path, generating the file first when no
// earlier run with the same seed left it behind. Other files of the same
// family are removed so the work directory stays bounded.
func (in input) ensure(dir string) (string, error) {
	path := filepath.Join(dir, in.file)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	stale, _ := filepath.Glob(filepath.Join(dir, in.family))
	for _, p := range stale {
		_ = os.Remove(p)
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := writeGraph(tmp, in.make(), in.format); err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("generate %s: %w", path, err)
	}
	return path, os.Rename(tmp, path)
}

func writeGraph(path string, g *graph.Graph, format graphio.Format) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = graphio.Write(w, g, format)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// The inputs. Sizes are the paper's datasets (Tables 1 and 2) divided by
// the divisor; the generators keep each original's shape.
func wikiInput(divisor int, seed int64, format graphio.Format, ext string) input {
	return input{
		file:   fmt.Sprintf("wiki-%d-seed%d.%s", divisor, seed, ext),
		family: fmt.Sprintf("wiki-%d-seed*.%s", divisor, ext),
		format: format,
		make: func() *graph.Graph {
			return gen.Wikipedia(gen.PresetParams{Divisor: divisor, Seed: deriveSeed(seed, 1)})
		},
	}
}

// roadInput is the USA-road stand-in: a grid, which the generator builds
// the same way for every seed.
func roadInput(divisor int, format graphio.Format, ext string) input {
	return input{
		file:   fmt.Sprintf("usa-%d.%s", divisor, ext),
		family: fmt.Sprintf("usa-%d.%s", divisor, ext),
		format: format,
		make:   func() *graph.Graph { return gen.USARoad(gen.PresetParams{Divisor: divisor}) },
	}
}
