package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// unitPlatform runs every task at rate 1.
func unitPlatform() Platform {
	return PlatformFunc(func(now float64, running []*Task) {
		for _, t := range running {
			t.SetRate(1)
		}
	})
}

func TestSingleTaskDuration(t *testing.T) {
	e := NewEngine(unitPlatform())
	s := e.NewStream("s", 0)
	task := e.NewTask("t", KindCompute, 2.5, nil, s)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !task.Done() {
		t.Fatal("task not done")
	}
	if task.Start() != 0 {
		t.Errorf("start = %g, want 0", task.Start())
	}
	if math.Abs(task.End()-2.5) > 1e-9 {
		t.Errorf("end = %g, want 2.5", task.End())
	}
	if e.Now() != task.End() {
		t.Errorf("engine now %g != task end %g", e.Now(), task.End())
	}
}

func TestStreamFIFO(t *testing.T) {
	e := NewEngine(unitPlatform())
	s := e.NewStream("s", 0)
	a := e.NewTask("a", KindCompute, 1, nil, s)
	b := e.NewTask("b", KindCompute, 1, nil, s)
	c := e.NewTask("c", KindCompute, 1, nil, s)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !(a.End() <= b.Start() && b.End() <= c.Start()) {
		t.Errorf("FIFO violated: a=[%g,%g] b=[%g,%g] c=[%g,%g]",
			a.Start(), a.End(), b.Start(), b.End(), c.Start(), c.End())
	}
	if c.End() != 3 {
		t.Errorf("c end = %g, want 3", c.End())
	}
}

func TestParallelStreams(t *testing.T) {
	e := NewEngine(unitPlatform())
	s1 := e.NewStream("s1", 0)
	s2 := e.NewStream("s2", 1)
	a := e.NewTask("a", KindCompute, 2, nil, s1)
	b := e.NewTask("b", KindCompute, 2, nil, s2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Start() != 0 || b.Start() != 0 {
		t.Errorf("tasks on independent streams should start together: %g, %g", a.Start(), b.Start())
	}
	if e.Now() != 2 {
		t.Errorf("parallel tasks should finish at 2, engine at %g", e.Now())
	}
}

func TestDependencyAcrossStreams(t *testing.T) {
	e := NewEngine(unitPlatform())
	s1 := e.NewStream("s1", 0)
	s2 := e.NewStream("s2", 1)
	a := e.NewTask("a", KindCompute, 1, nil, s1)
	b := e.NewTask("b", KindCompute, 1, nil, s2)
	b.After(a)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Start() < a.End() {
		t.Errorf("b started at %g before a finished at %g", b.Start(), a.End())
	}
}

func TestRendezvousMultiStream(t *testing.T) {
	e := NewEngine(unitPlatform())
	s1 := e.NewStream("s1", 0)
	s2 := e.NewStream("s2", 1)
	a := e.NewTask("a", KindCompute, 3, nil, s1)
	// coll occupies both streams: it must wait for a (head of s1).
	coll := e.NewTask("coll", KindComm, 1, nil, s1, s2)
	b := e.NewTask("b", KindCompute, 1, nil, s2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if coll.Start() < a.End() {
		t.Errorf("rendezvous started at %g before stream 1 head done at %g", coll.Start(), a.End())
	}
	if b.Start() < coll.End() {
		t.Errorf("b started %g before rendezvous finished %g", b.Start(), coll.End())
	}
}

func TestZeroWorkTask(t *testing.T) {
	e := NewEngine(unitPlatform())
	s := e.NewStream("s", 0)
	a := e.NewTask("a", KindHost, 0, nil, s)
	b := e.NewTask("b", KindCompute, 1, nil, s)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.End() != 0 {
		t.Errorf("zero-work task end = %g, want 0", a.End())
	}
	if b.End() != 1 {
		t.Errorf("b end = %g, want 1", b.End())
	}
}

func TestDeadlockCycleDetected(t *testing.T) {
	e := NewEngine(unitPlatform())
	s1 := e.NewStream("s1", 0)
	s2 := e.NewStream("s2", 1)
	a := e.NewTask("a", KindCompute, 1, nil, s1)
	b := e.NewTask("b", KindCompute, 1, nil, s2)
	a.After(b)
	b.After(a)
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestDeadlockAllStalled(t *testing.T) {
	e := NewEngine(PlatformFunc(func(now float64, running []*Task) {
		for _, t := range running {
			t.SetRate(0)
		}
	}))
	s := e.NewStream("s", 0)
	e.NewTask("t", KindCompute, 1, nil, s)
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock for all-stalled, got %v", err)
	}
}

func TestRateChangeMidTask(t *testing.T) {
	// Task b (work 1, rate 1) shares the platform with task a (work 1).
	// While both run, each runs at rate 0.5 (processor sharing); after a
	// finishes, b speeds back up.
	shared := PlatformFunc(func(now float64, running []*Task) {
		for _, t := range running {
			t.SetRate(1 / float64(len(running)))
		}
	})
	e := NewEngine(shared)
	s1 := e.NewStream("s1", 0)
	s2 := e.NewStream("s2", 1)
	a := e.NewTask("a", KindCompute, 1, nil, s1)
	b := e.NewTask("b", KindCompute, 2, nil, s2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both at 0.5 until a done at t=2 (a work 1 at 0.5). b then has 1 unit
	// left at rate 1 → ends at 3.
	if math.Abs(a.End()-2) > 1e-9 || math.Abs(b.End()-3) > 1e-9 {
		t.Errorf("a end %g (want 2), b end %g (want 3)", a.End(), b.End())
	}
}

func TestStalledTaskResumesWhenOthersRun(t *testing.T) {
	// A task stalled at rate 0 must not deadlock while another progresses,
	// and must resume when the platform raises its rate.
	var gate *Task
	plat := PlatformFunc(func(now float64, running []*Task) {
		for _, t := range running {
			if t == gate {
				// Stalled until its neighbor finishes.
				if len(running) > 1 {
					t.SetRate(0)
				} else {
					t.SetRate(1)
				}
				continue
			}
			t.SetRate(1)
		}
	})
	e := NewEngine(plat)
	s1 := e.NewStream("s1", 0)
	s2 := e.NewStream("s2", 1)
	a := e.NewTask("a", KindCompute, 2, nil, s1)
	gate = e.NewTask("gated", KindComm, 1, nil, s2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(gate.End()-3) > 1e-9 {
		t.Errorf("gated end %g, want 3 (stalled 2s then 1s of work)", gate.End())
	}
	_ = a
}

func TestObserverSegmentsCoverRun(t *testing.T) {
	e := NewEngine(unitPlatform())
	s := e.NewStream("s", 0)
	e.NewTask("a", KindCompute, 1.5, nil, s)
	e.NewTask("b", KindCompute, 0.5, nil, s)
	var covered float64
	var last float64
	e.AddObserver(ObserverFunc(func(t0, t1 float64, running []*Task) {
		if t0 < last-1e-12 {
			t.Errorf("segments out of order: t0=%g after %g", t0, last)
		}
		covered += t1 - t0
		last = t1
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(covered-2) > 1e-9 {
		t.Errorf("observer covered %g, want 2", covered)
	}
}

func TestInvalidWorkPanics(t *testing.T) {
	e := NewEngine(unitPlatform())
	s := e.NewStream("s", 0)
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("work %v: expected panic", w)
				}
			}()
			e.NewTask("bad", KindCompute, w, nil, s)
		}()
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindCompute: "compute", KindComm: "comm", KindHost: "host", Kind(9): "kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

// Property: for a chain of sequential tasks at unit rate, total time equals
// total work, regardless of the split.
func TestQuickSequentialWorkConservation(t *testing.T) {
	f := func(works []uint8) bool {
		if len(works) == 0 || len(works) > 50 {
			return true
		}
		e := NewEngine(unitPlatform())
		s := e.NewStream("s", 0)
		total := 0.0
		for i, w := range works {
			work := float64(w%100) / 10
			total += work
			e.NewTask(name(i), KindCompute, work, nil, s)
		}
		if err := e.Run(); err != nil {
			return false
		}
		return math.Abs(e.Now()-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: with K independent streams each holding one task of work w at
// unit rate, the makespan is max(w).
func TestQuickParallelMakespan(t *testing.T) {
	f := func(works []uint8) bool {
		if len(works) == 0 || len(works) > 20 {
			return true
		}
		e := NewEngine(unitPlatform())
		maxW := 0.0
		for i, w := range works {
			work := float64(w)/16 + 0.01
			if work > maxW {
				maxW = work
			}
			s := e.NewStream(name(i), i)
			e.NewTask(name(i), KindCompute, work, nil, s)
		}
		if err := e.Run(); err != nil {
			return false
		}
		return math.Abs(e.Now()-maxW) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func name(i int) string { return string(rune('a' + i%26)) }
