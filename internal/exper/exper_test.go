package exper

import (
	"fmt"
	"strings"
	"testing"

	"fibril/internal/bench"
	"fibril/internal/table"
)

// fastOpts restricts experiments to one small benchmark and one timing rep
// so the full driver stack is exercised quickly.
func fastOpts() Options {
	return Options{Reps: 1, Benches: []string{"cholesky"}}
}

func rowCount(t *table.Table) int { return len(t.Rows) }

func TestFig3ProducesRatios(t *testing.T) {
	tb := Fig3(fastOpts())
	if rowCount(tb) != 1 {
		t.Fatalf("rows = %d, want 1", rowCount(tb))
	}
	if len(tb.Rows[0]) != 6 {
		t.Fatalf("columns = %d, want 6", len(tb.Rows[0]))
	}
	if tb.Rows[0][0] != "cholesky" {
		t.Errorf("row names %v", tb.Rows[0])
	}
}

func TestFig4GridMatchesOptions(t *testing.T) {
	o := fastOpts()
	tb := Fig4(o, specOf(t, "cholesky"))
	if rowCount(tb) != len(o.pGrid()) {
		t.Fatalf("rows = %d, want %d", rowCount(tb), len(o.pGrid()))
	}
	if !strings.Contains(tb.Title, "cholesky") {
		t.Errorf("title %q", tb.Title)
	}
}

func TestTablesProduceOneRowPerBench(t *testing.T) {
	o := fastOpts()
	for name, tb := range map[string]*table.Table{
		"table2": Table2(o), "table3": Table3(o), "table4": Table4(o),
	} {
		if rowCount(tb) != 1 {
			t.Errorf("%s rows = %d, want 1", name, rowCount(tb))
		}
	}
}

func TestTable3BoundHolds(t *testing.T) {
	tb := Table3(fastOpts())
	last := tb.Rows[0][len(tb.Rows[0])-1]
	if last != "true" {
		t.Errorf("Theorem 4.2 bound column = %q, want true", last)
	}
}

func TestAblationsRun(t *testing.T) {
	o := fastOpts()
	if rowCount(AblationMMap(o)) == 0 {
		t.Error("mmap ablation empty")
	}
	if rowCount(AblationDepthRestricted(o)) == 0 {
		t.Error("depth ablation empty")
	}
	if rowCount(AblationStackPool(o)) != 4 {
		t.Error("pool ablation should sweep four limits")
	}
}

func TestCountersSmokeForcesConcurrency(t *testing.T) {
	tb := CountersSmoke(fastOpts())
	if rowCount(tb) != 1 {
		t.Fatalf("rows = %d", rowCount(tb))
	}
	if tb.Rows[0][1] == "1" {
		t.Errorf("counters smoke ran with 1 worker; want forced concurrency")
	}
}

func TestUnknownBenchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown benchmark")
		}
	}()
	Fig3(Options{Benches: []string{"nope"}, Reps: 1})
}

func specOf(t *testing.T, name string) *bench.Spec {
	t.Helper()
	for _, s := range (Options{Benches: []string{name}}).specs() {
		return s
	}
	t.Fatal("missing spec")
	return nil
}

func TestPredictAgreesWithSimulatorWithinFactor(t *testing.T) {
	// The closed-form prediction and the simulation should agree within a
	// small factor on a well-behaved tree at moderate P.
	o := Options{Reps: 1}
	tb := Predict(o, specOf(t, "fft"))
	for _, row := range tb.Rows {
		pred, sim := row[1], row[2]
		var p, s float64
		fmt.Sscanf(pred, "%f", &p)
		fmt.Sscanf(sim, "%f", &s)
		if s == 0 {
			t.Fatalf("zero simulated speedup in row %v", row)
		}
		if r := p / s; r < 0.3 || r > 3.0 {
			t.Errorf("P=%s: prediction %.2f vs simulation %.2f (ratio %.2f) outside [0.3,3]",
				row[0], p, s, r)
		}
	}
}
