package sim

import (
	"fmt"
	"math"
	"testing"
)

// intEq is the payload comparator the sim-level tests use: payloads are
// plain ints (template indices), equal across symmetric ranks.
func intEq(a, b any) bool { return a == b }

// flatRate runs every task at a rate derived purely from its payload, so
// a collapsed run and a full run rate identical tasks identically.
func flatRate(now float64, running []*Task) {
	for _, t := range running {
		t.SetRate(float64(t.Payload().(int)%3) + 0.5)
	}
}

// symDAG builds ranks identical single-stream schedules plus one shared
// source and one shared sink on an extra device — the shape the strategy
// builders produce (per-rank compute chains hanging off shared
// collectives). Returns the engine and all tasks by [rank][slot].
func symDAG(ranks, slots int, perturb func(rank, slot int, work float64) float64) (*Engine, [][]*Task) {
	e := NewEngine(PlatformFunc(flatRate))
	shared := e.NewStream("shared", ranks)
	src := e.NewTask("src", KindCompute, 1, 100, shared)
	tasks := make([][]*Task, ranks)
	for r := 0; r < ranks; r++ {
		s := e.NewStream(fmt.Sprintf("rank%d", r), r)
		tasks[r] = make([]*Task, slots)
		for i := 0; i < slots; i++ {
			work := float64(i%5) + 0.5
			if perturb != nil {
				work = perturb(r, i, work)
			}
			t := e.NewTask(fmt.Sprintf("r%d.%d", r, i), KindCompute, work, i, s)
			if i == 0 {
				t.After(src)
			} else {
				t.After(tasks[r][i-1])
				if i >= 2 {
					t.After(tasks[r][i-2]) // redundant edge: preds alignment must still pair
				}
			}
			tasks[r][i] = t
		}
	}
	sink := e.NewTask("sink", KindCompute, 1, 101, shared)
	for r := 0; r < ranks; r++ {
		sink.After(tasks[r][slots-1])
	}
	return e, tasks
}

func classShape(classes []Class) []int {
	var out []int
	for _, c := range classes {
		out = append(out, len(c.Members))
	}
	return out
}

func TestDetectClasses(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Engine
		want    []int // class sizes in detection order
		collaps int   // classes with >1 member
	}{
		{
			name: "identical ranks merge",
			build: func() *Engine {
				e, _ := symDAG(4, 6, nil)
				return e
			},
			// devices 0..3 are one class, the shared device its own.
			want:    []int{4, 1},
			collaps: 1,
		},
		{
			name: "perturbed rank splits",
			build: func() *Engine {
				e, _ := symDAG(4, 6, func(rank, slot int, w float64) float64 {
					if rank == 2 && slot == 3 {
						return w * 2
					}
					return w
				})
				return e
			},
			want:    []int{3, 1, 1},
			collaps: 1,
		},
		{
			name: "all distinct",
			build: func() *Engine {
				e, _ := symDAG(3, 4, func(rank, slot int, w float64) float64 {
					return w + float64(rank)
				})
				return e
			},
			want:    []int{1, 1, 1, 1},
			collaps: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.build()
			classes := e.DetectClasses(intEq)
			got := classShape(classes)
			if len(got) != len(tc.want) {
				t.Fatalf("classes %v, want sizes %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("classes %v, want sizes %v", got, tc.want)
				}
			}
			multi := 0
			for _, c := range classes {
				if len(c.Members) > 1 {
					multi++
				}
			}
			if multi != tc.collaps {
				t.Fatalf("collapsible classes = %d, want %d", multi, tc.collaps)
			}
		})
	}
}

func TestDetectClassesVetoes(t *testing.T) {
	t.Run("rendezvous task", func(t *testing.T) {
		e := NewEngine(PlatformFunc(flatRate))
		s0 := e.NewStream("a", 0)
		s1 := e.NewStream("b", 1)
		e.NewTask("x", KindCompute, 1, 0, s0)
		e.NewTask("y", KindCompute, 1, 0, s1)
		e.NewTask("rv", KindComm, 1, 1, s0, s1) // touches both devices
		for _, c := range e.DetectClasses(intEq) {
			if len(c.Members) > 1 {
				t.Fatalf("rendezvous devices merged: %v", c.Members)
			}
		}
	})
	t.Run("nil eq", func(t *testing.T) {
		e, _ := symDAG(2, 2, nil)
		if got := e.DetectClasses(nil); got != nil {
			t.Fatalf("DetectClasses(nil) = %v, want nil", got)
		}
	})
	t.Run("already ran", func(t *testing.T) {
		e, _ := symDAG(2, 2, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := e.DetectClasses(intEq); got != nil {
			t.Fatalf("DetectClasses after run = %v, want nil", got)
		}
	})
}

// TestCollapseBitIdentical is the sim-level differential: a collapsed
// run must reproduce the full run's every task time bit for bit,
// including the reconstructed ghosts.
func TestCollapseBitIdentical(t *testing.T) {
	const ranks, slots = 6, 9
	ref, refTasks := symDAG(ranks, slots, nil)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	e, tasks := symDAG(ranks, slots, nil)
	classes := e.DetectClasses(intEq)
	ghosts := e.Collapse(classes)
	if want := (ranks - 1) * slots; ghosts != want {
		t.Fatalf("Collapse ghosted %d tasks, want %d", ghosts, want)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for i := 0; i < slots; i++ {
			g, f := tasks[r][i], refTasks[r][i]
			if !g.Done() {
				t.Fatalf("task r%d.%d not reconstructed", r, i)
			}
			if math.Float64bits(g.Start()) != math.Float64bits(f.Start()) ||
				math.Float64bits(g.End()) != math.Float64bits(f.End()) {
				t.Fatalf("task r%d.%d diverged: collapsed [%g,%g] vs full [%g,%g]",
					r, i, g.Start(), g.End(), f.Start(), f.End())
			}
		}
	}
	st := e.Stats()
	if st.CollapsedClasses != 1 || st.GhostTasks != ghosts {
		t.Fatalf("stats = %d classes / %d ghosts, want 1 / %d",
			st.CollapsedClasses, st.GhostTasks, ghosts)
	}
}

// TestCollapseGhostEdgeTransfer pins the dependency bookkeeping: the
// shared sink depends on every rank's last task, so collapsing must
// transfer the ghost ranks' edges onto the representative — otherwise
// the sink either deadlocks (deps never decremented) or starts early
// (decremented at mark time instead of at the mirror's finish).
func TestCollapseGhostEdgeTransfer(t *testing.T) {
	e, tasks := symDAG(4, 3, nil)
	classes := e.DetectClasses(intEq)
	if e.Collapse(classes) == 0 {
		t.Fatal("nothing collapsed")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ref, refTasks := symDAG(4, 3, nil)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	// The engines enqueue src first and sink last; compare sink times via
	// the tasks slice bounds.
	last := tasks[3][2]
	refLast := refTasks[3][2]
	if math.Float64bits(last.End()) != math.Float64bits(refLast.End()) {
		t.Fatalf("ghost end %g != reference %g", last.End(), refLast.End())
	}
	if e.Now() != ref.Now() {
		t.Fatalf("terminal time diverged: %g vs %g", e.Now(), ref.Now())
	}
}
