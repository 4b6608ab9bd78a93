package harness

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
)

func TestParallelismDefaultAndOverride(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("default parallelism = %d", Parallelism())
	}
	SetParallelism(3)
	if Parallelism() != 3 {
		t.Fatalf("Parallelism = %d, want 3", Parallelism())
	}
	SetParallelism(-5) // anything < 1 restores the default
	if Parallelism() < 1 {
		t.Fatalf("parallelism after reset = %d", Parallelism())
	}
}

func TestParRowsOrderAndCallCounts(t *testing.T) {
	defer SetParallelism(0)
	for _, j := range []int{1, 2, 8} {
		SetParallelism(j)
		tab := &Table{ID: "T", Headers: []string{"i", "sq"}}
		var calls atomic.Int64
		const n = 23
		err := ParRows(tab, n, func(i int) ([][]string, error) {
			calls.Add(1)
			return [][]string{{strconv.Itoa(i), strconv.Itoa(i * i)}}, nil
		})
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if calls.Load() != n {
			t.Fatalf("j=%d: %d calls, want %d", j, calls.Load(), n)
		}
		if len(tab.Rows) != n {
			t.Fatalf("j=%d: %d rows, want %d", j, len(tab.Rows), n)
		}
		for i, row := range tab.Rows {
			if row[0] != strconv.Itoa(i) {
				t.Fatalf("j=%d: row %d starts with %q", j, i, row[0])
			}
		}
	}
}

func TestParRowsFirstErrorInPointOrder(t *testing.T) {
	defer SetParallelism(0)
	errAt := func(fail map[int]bool) func(int) ([][]string, error) {
		return func(i int) ([][]string, error) {
			if fail[i] {
				return nil, fmt.Errorf("point %d failed", i)
			}
			return [][]string{{strconv.Itoa(i)}}, nil
		}
	}
	for _, j := range []int{1, 4} {
		SetParallelism(j)
		tab := &Table{ID: "T", Headers: []string{"i"}}
		err := ParRows(tab, 10, errAt(map[int]bool{7: true, 3: true}))
		if err == nil || err.Error() != "point 3 failed" {
			t.Fatalf("j=%d: err = %v, want the lowest-indexed failure", j, err)
		}
		if len(tab.Rows) != 0 {
			t.Fatalf("j=%d: %d rows appended despite error", j, len(tab.Rows))
		}
	}
}

// TestExperimentsByteIdenticalAcrossParallelism is the determinism
// guarantee behind SetParallelism: every deterministic experiment must
// render byte-identical markdown and CSV whether its sweep runs on one
// worker or eight. Run under -race in CI, this also shakes out data
// races in the converted sweeps.
func TestExperimentsByteIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	defer SetParallelism(0)
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			render := func(j int) (string, string, error) {
				SetParallelism(j)
				tab, err := e.Run()
				if err != nil {
					return "", "", err
				}
				return tab.Markdown(), tab.CSV(), nil
			}
			md1, csv1, err := render(1)
			if err != nil {
				t.Fatalf("-j 1: %v", err)
			}
			md8, csv8, err := render(8)
			if err != nil {
				t.Fatalf("-j 8: %v", err)
			}
			if md1 != md8 {
				t.Errorf("markdown differs between -j 1 and -j 8")
			}
			if csv1 != csv8 {
				t.Errorf("CSV differs between -j 1 and -j 8")
			}
		})
	}
}

var errSentinel = errors.New("sentinel")

func TestParRowsZeroPoints(t *testing.T) {
	tab := &Table{ID: "T", Headers: []string{"x"}}
	if err := ParRows(tab, 0, func(int) ([][]string, error) { return nil, errSentinel }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if len(tab.Rows) != 0 {
		t.Fatalf("n=0 produced rows")
	}
}
