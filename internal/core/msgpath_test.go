// Tests of the message hot path against the real programs of
// internal/algorithms: the zero-allocation gates for compute, Send,
// Broadcast and NextMessage, and the consume-on-return contract of the
// cell mailboxes (undrained mail never leaks into the next superstep,
// checkpoints taken with pending mail restore exactly, hub contention
// loses no combine) across every combiner, both selection modes, and the
// flat and sharded engines.
package core_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

var pushCombiners = []core.Combiner{core.CombinerMutex, core.CombinerSpin, core.CombinerAtomic}

// superstepAllocs builds a flat single-threaded engine for prog, runs
// warm supersteps, then reports the allocations of one more superstep.
func superstepAllocs[V, M any](t *testing.T, g *graph.Graph, cfg core.Config, prog core.Program[V, M], warm int) float64 {
	t.Helper()
	cfg.Threads = 1
	e, err := core.New(g, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		core.SerialSuperstep(e)
	}
	return testing.AllocsPerRun(10, func() { core.SerialSuperstep(e) })
}

// TestComputeAllocs pins the per-vertex and per-message allocations of
// PageRank and SSSP at zero under every push combiner: the caller's
// NextMessage variable stays on the stack and Broadcast delivers without
// allocating.
func TestComputeAllocs(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation gates do not hold under -race instrumentation")
	}
	wiki := gen.RMATN(2000, 16000, 3, 0, false)
	road := gen.Road(gen.RoadParams{Rows: 48, Cols: 48})
	for _, comb := range pushCombiners {
		cfg := core.Config{Combiner: comb}
		if a := superstepAllocs(t, wiki, cfg, algorithms.PageRankProgram(1<<20), 2); a != 0 {
			t.Errorf("%s: PageRank superstep made %v allocations, want 0", comb, a)
		}
		// SSSP's wavefront on a 48×48 grid is still moving after the
		// warm-up, so the measured supersteps run real compute.
		if a := superstepAllocs(t, road, cfg, algorithms.SSSPProgram(0), 3); a != 0 {
			t.Errorf("%s: SSSP superstep made %v allocations, want 0", comb, a)
		}
	}
}

// sendProg exercises every framework call on the message path: it drains
// with NextMessage, Sends to the next identifier and Broadcasts to its
// out-neighbours, forever.
func sendProg(n int) core.Program[uint32, uint32] {
	return core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			var m uint32
			for ctx.NextMessage(v, &m) {
				*v.Value() += m
			}
			ctx.Send(graph.VertexID(int(v.ID())%n+1), 1) // ids are 1..n
			ctx.Broadcast(v, 2)
		},
	}
}

// TestSendBroadcastNextMessageAllocs gates the three message calls at
// zero allocations on the monomorphic path (each push combiner) and on
// the interface path (hashmap addressing, sender-side combining).
func TestSendBroadcastNextMessageAllocs(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation gates do not hold under -race instrumentation")
	}
	const n = 1000
	g := gen.RMATN(n, 8000, 5, 1, false)
	cfgs := []core.Config{
		{Combiner: core.CombinerSpin, Addressing: core.AddressHashmap},
		{Combiner: core.CombinerMutex, SenderCombining: true},
		{Combiner: core.CombinerSpin, Addressing: core.AddressDesolate},
	}
	for _, comb := range pushCombiners {
		cfgs = append(cfgs, core.Config{Combiner: comb})
	}
	for _, cfg := range cfgs {
		if a := superstepAllocs(t, g, cfg, sendProg(n), 2); a != 0 {
			t.Errorf("%s/%s/combining=%v: %v allocations per superstep, want 0",
				cfg.Combiner, cfg.Addressing, cfg.SenderCombining, a)
		}
	}
}

// contractConfigs is the consume-on-return grid: all four combiners,
// scan and bypass selection, flat and four-shard engines.
func contractConfigs(threads int) []core.Config {
	var out []core.Config
	for _, comb := range []core.Combiner{core.CombinerMutex, core.CombinerSpin, core.CombinerAtomic, core.CombinerPull} {
		for _, bypass := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				out = append(out, core.Config{Combiner: comb, SelectionBypass: bypass, Shards: shards, Threads: threads})
			}
		}
	}
	return out
}

func configName(cfg core.Config) string {
	return fmt.Sprintf("%s/shards=%d", cfg.VersionName(), cfg.Shards)
}

// undrainedProg broadcasts 1 at superstep 0; at supersteps 1 and 2
// every recipient ignores its mail and broadcasts 100, then 10000; at
// superstep 3 it sums what it received. With a sum combine, undrained
// mail leaking into either following superstep's buffer — the one
// receiving now, or the one a double-buffer flip hands back next —
// shows as a sum other than 10000. Every vertex votes to halt every
// superstep, so the program is bypass-eligible.
func undrainedProg() core.Program[uint32, uint32] {
	return core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			switch ctx.Superstep() {
			case 0:
				ctx.Broadcast(v, 1)
			case 1:
				ctx.Broadcast(v, 100)
			case 2:
				ctx.Broadcast(v, 10000)
			default:
				var m uint32
				for ctx.NextMessage(v, &m) {
					*v.Value() += m
				}
			}
			ctx.VoteToHalt(v)
		},
	}
}

// TestUndrainedMailDoesNotLeak: a vertex that receives mail but never
// drains it must not see that mail next superstep.
func TestUndrainedMailDoesNotLeak(t *testing.T) {
	g := gen.Ring(64, 1).WithInEdges()
	for _, cfg := range contractConfigs(2) {
		for _, check := range []bool{false, true} {
			cfg := cfg
			cfg.CheckInvariants = check
			t.Run(fmt.Sprintf("%s/check=%v", configName(cfg), check), func(t *testing.T) {
				e, _, err := core.Run(g, cfg, undrainedProg())
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range e.ValuesDense() {
					if v != 10000 {
						t.Fatalf("vertex %d summed %d at superstep 3, want 10000 (undrained mail leaked)", i+1, v)
					}
				}
			})
		}
	}
}

// TestCheckpointWithPendingMailRestores takes a checkpoint at every
// barrier — each with mail pending, some of it mail the next superstep
// leaves undrained — and requires every restored run to finish with the
// uninterrupted run's values.
func TestCheckpointWithPendingMailRestores(t *testing.T) {
	ring := gen.Ring(64, 1).WithInEdges()
	road := gen.Road(gen.RoadParams{Rows: 8, Cols: 8, Base: 1, BuildInEdges: true})
	progs := []struct {
		name string
		g    *graph.Graph
		prog core.Program[uint32, uint32]
	}{
		{"undrained", ring, undrainedProg()},
		{"sssp", road, algorithms.SSSPProgram(1)},
	}
	for _, p := range progs {
		for _, cfg := range contractConfigs(2) {
			p, cfg := p, cfg
			t.Run(p.name+"/"+configName(cfg), func(t *testing.T) {
				ref, _, err := core.Run(p.g, cfg, p.prog)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.ValuesDense()
				var dumps []*bytes.Buffer
				e, err := core.New(p.g, cfg, p.prog)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.SetCheckpointer(core.Checkpointer[uint32, uint32]{
					Every: 1,
					Sink: func(int) (io.Writer, error) {
						dumps = append(dumps, &bytes.Buffer{})
						return dumps[len(dumps)-1], nil
					},
					VCodec: pregelplus.Uint32Codec{},
					MCodec: pregelplus.Uint32Codec{},
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				if len(dumps) == 0 {
					t.Fatal("no checkpoint taken")
				}
				for k, dump := range dumps {
					r, err := core.Restore(bytes.NewReader(dump.Bytes()), p.g, cfg, p.prog, pregelplus.Uint32Codec{}, pregelplus.Uint32Codec{})
					if err != nil {
						t.Fatalf("restore #%d: %v", k, err)
					}
					if _, err := r.Run(); err != nil {
						t.Fatalf("resumed run #%d: %v", k, err)
					}
					for i, v := range r.ValuesDense() {
						if v != want[i] {
							t.Fatalf("restore #%d: vertex %d = %d, want %d", k, i+1, v, want[i])
						}
					}
				}
			})
		}
	}
}

// TestHubContentionMatchesReference is the stress test for the rewritten
// concurrent delivery path (run it with -race): on a transposed star
// every leaf's PageRank share lands in the one hub cell every superstep,
// and the hub's rank must still match the sequential reference — a lost
// combine under contention would drop a leaf's share.
func TestHubContentionMatchesReference(t *testing.T) {
	g := gen.Star(1<<12, 0).Transpose()
	const rounds = 5
	ref := algorithms.RefPageRank(g, rounds)
	for _, comb := range []core.Combiner{core.CombinerMutex, core.CombinerSpin, core.CombinerAtomic, core.CombinerPull} {
		for _, shards := range []int{1, 4} {
			cfg := core.Config{Combiner: comb, Shards: shards, Threads: 4, CheckInvariants: true}
			t.Run(configName(cfg), func(t *testing.T) {
				got, _, err := algorithms.PageRank(g, cfg, rounds)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					if math.Abs(got[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
						t.Fatalf("vertex %d: rank %v, reference %v", i, got[i], ref[i])
					}
				}
			})
		}
	}
}
