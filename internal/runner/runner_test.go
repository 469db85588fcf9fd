package runner

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"abw/internal/rng"
)

func TestAllOrdersResultsByIndex(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 8, 33} {
		SetWorkers(workers)
		got, err := All(20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 20 {
			t.Fatalf("workers=%d: %d results, want 20", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestAllDeterministicAcrossWorkerCounts(t *testing.T) {
	// The determinism contract: jobs deriving their randomness from
	// (seed, index) alone produce identical results at every worker
	// count.
	defer SetWorkers(0)
	draw := func(i int) (float64, error) {
		r := rng.Derive(42, fmt.Sprintf("trial%d", i))
		return r.Exp(1) + r.Pareto(1.5, 1), nil
	}
	SetWorkers(1)
	serial, err := All(64, draw)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		SetWorkers(workers)
		par, err := All(64, draw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: results differ from serial run", workers)
		}
	}
}

func TestAllPropagatesFirstError(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	boom := errors.New("boom")
	var ran atomic.Int64
	res, err := All(100, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if res != nil {
		t.Fatalf("results should be nil on error, got %d values", len(res))
	}
	if n := ran.Load(); n == 100 {
		t.Error("error did not stop the queue: all 100 jobs ran")
	}
}

func TestAllZeroJobs(t *testing.T) {
	res, err := All(0, func(int) (int, error) {
		t.Error("fn called with n = 0")
		return 0, nil
	})
	if err != nil || res != nil {
		t.Fatalf("n=0: res=%v err=%v", res, err)
	}
}

func TestDefaultWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if w := Workers(); w != 3 {
		t.Fatalf("Workers() = %d, want 3", w)
	}
	SetWorkers(0)
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d, want >= 1", w)
	}
	SetWorkers(-5)
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() after negative set = %d, want >= 1", w)
	}
}

func TestAllUsesDefaultPool(t *testing.T) {
	res, err := All(5, func(i int) (string, error) { return fmt.Sprint(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"0", "1", "2", "3", "4"}; !reflect.DeepEqual(res, want) {
		t.Fatalf("All = %v, want %v", res, want)
	}
	if _, err := All(2, func(i int) (int, error) { return 0, errors.New("nope") }); err == nil {
		t.Fatal("All swallowed the error")
	}
}

// TestMapProgressReachesTotal keeps its name from before All replaced
// Map: at 4 workers each done count 1..30 is reported exactly once.
func TestMapProgressReachesTotal(t *testing.T) {
	defer SetProgress(nil)
	defer SetWorkers(0)
	SetWorkers(4)
	var calls []int
	SetProgress(func(done, total int) {
		if total != 30 {
			t.Errorf("total = %d, want 30", total)
		}
		calls = append(calls, done) // serialized by All
	})
	if _, err := All(30, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 30 {
		t.Fatalf("progress calls = %d, want 30", len(calls))
	}
	seen := make(map[int]bool)
	for _, d := range calls {
		if d < 1 || d > 30 || seen[d] {
			t.Fatalf("bad progress sequence: %v", calls)
		}
		seen[d] = true
	}
}

// TestSetProgressObservesDefaultPool: the callback is serialized,
// strictly increasing, and reaches the total, at several workers.
func TestSetProgressObservesDefaultPool(t *testing.T) {
	defer SetProgress(nil)
	defer SetWorkers(0)
	SetWorkers(4)
	var last, calls int // written only under All's serialization
	SetProgress(func(done, total int) {
		if total != 30 {
			t.Errorf("total = %d, want 30", total)
		}
		if done <= last {
			t.Errorf("done counter not strictly increasing: %d after %d", done, last)
		}
		last = done
		calls++
	})
	if _, err := All(30, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 30 || last != 30 {
		t.Fatalf("progress calls = %d, last done = %d; want 30 and 30", calls, last)
	}
	SetProgress(nil)
	if _, err := All(3, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 30 {
		t.Fatal("SetProgress(nil) did not remove the callback")
	}
}
