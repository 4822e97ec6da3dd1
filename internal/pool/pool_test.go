package pool

import (
	"testing"
)

// TestRunIdenticalAcrossPoolSizes pins the determinism contract: results are
// indexed by unit, so every worker count yields the serial output.
func TestRunIdenticalAcrossPoolSizes(t *testing.T) {
	const n = 100
	units := make([]func(w int) int, n)
	for i := range units {
		units[i] = func(int) int { return i * i }
	}
	ref := Run(units, 1)
	for _, workers := range []int{0, 2, 4, 8, 200} {
		got := Run(units, workers)
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), n)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: unit %d returned %d, serial reference %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if got := Run[int](nil, 4); len(got) != 0 {
		t.Fatalf("Run(nil) returned %v, want empty", got)
	}
}

// TestRunWithWorkerSlots pins the worker-slot contract of Run: results are
// indexed by unit regardless of worker count, and every worker index handed
// to a unit is within [0, workers) so per-worker scratch slots never collide
// or go out of bounds.
func TestRunWithWorkerSlots(t *testing.T) {
	const n = 100
	units := make([]func(w int) [2]int, n)
	for i := range units {
		units[i] = func(w int) [2]int { return [2]int{i * i, w} }
	}
	for _, workers := range []int{1, 2, 4, 8, 200} {
		slots := min(workers, n)
		got := Run(units, workers)
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), n)
		}
		for i, r := range got {
			if r[0] != i*i {
				t.Fatalf("workers=%d: unit %d returned %d, want %d", workers, i, r[0], i*i)
			}
			if r[1] < 0 || r[1] >= slots {
				t.Fatalf("workers=%d: unit %d ran on worker %d, want [0,%d)", workers, i, r[1], slots)
			}
		}
	}
}

// TestRunWithSerialUsesSlotZero pins that the serial path (workers <= 1)
// hands every unit worker slot 0.
func TestRunWithSerialUsesSlotZero(t *testing.T) {
	units := []func(w int) int{func(w int) int { return w }, func(w int) int { return w }}
	for _, workers := range []int{0, 1} {
		for _, w := range Run(units, workers) {
			if w != 0 {
				t.Fatalf("serial Run (workers=%d) used worker slot %d, want 0", workers, w)
			}
		}
	}
}
