package experiments

import (
	"strings"
	"testing"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	cfg := Config{
		Seed:      9,
		Scale:     0.12,
		Runs:      5,
		SVMCap:    250,
		TrainCap:  250,
		SVMSample: 120,
	}
	return NewEnv(cfg)
}

func TestAllExperimentsRun(t *testing.T) {
	e := testEnv(t)

	t3, err := Table3(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 5 {
		t.Errorf("table 3 rows = %d", len(t3.Rows))
	}
	if !strings.Contains(t3.Render(), "Table 3") {
		t.Error("table 3 render")
	}

	t4, err := Table4(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.NN) != 5 || len(t4.SVM) != 5 {
		t.Errorf("table 4 = %d/%d", len(t4.NN), len(t4.SVM))
	}
	if !strings.Contains(t4.Render(), "greedy") {
		t.Error("table 4 render")
	}

	t2, err := Table2(e)
	if err != nil {
		t.Fatal(err)
	}
	if t2.Table.SVMAccuracy <= t2.Table.HeurAccuracy {
		t.Errorf("SVM %.2f <= heuristic %.2f", t2.Table.SVMAccuracy, t2.Table.HeurAccuracy)
	}
	out := t2.Render()
	if !strings.Contains(out, "Optimal unroll factor") || !strings.Contains(out, "Worst unroll factor") {
		t.Errorf("table 2 render:\n%s", out)
	}

	f3, err := Figure3(e)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range f3.Hist {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("figure 3 histogram sums to %v", sum)
	}
	if !strings.Contains(f3.Render(), "u=8") {
		t.Error("figure 3 render")
	}

	f1, err := Figure1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Points) != len(f1.Labels) || len(f1.Points) == 0 {
		t.Errorf("figure 1 points = %d", len(f1.Points))
	}
	if f1.NNAcc <= 0.3 {
		t.Errorf("figure 1 projected NN accuracy = %.2f", f1.NNAcc)
	}
	if !strings.Contains(f1.Render(), "centroid") {
		t.Error("figure 1 render")
	}

	f2, err := Figure2(e)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Accuracy < 0.7 {
		t.Errorf("figure 2 training accuracy = %.2f", f2.Accuracy)
	}
	if len(f2.Grid) == 0 {
		t.Error("figure 2 grid empty")
	}
	if !strings.Contains(f2.Render(), "decision regions") {
		t.Error("figure 2 render")
	}

	f4, err := Figure4(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Summary.Rows) != 24 {
		t.Errorf("figure 4 rows = %d", len(f4.Summary.Rows))
	}
	if f4.Summary.OracleAll <= 0 {
		t.Errorf("figure 4 oracle = %v", f4.Summary.OracleAll)
	}
	if !strings.Contains(f4.Render(), "171.swim") {
		t.Error("figure 4 render")
	}
}

func TestFigure5SWP(t *testing.T) {
	e := testEnv(t)
	f5, err := Figure5(e)
	if err != nil {
		t.Fatal(err)
	}
	if !f5.SWP || len(f5.Summary.Rows) != 24 {
		t.Fatalf("figure 5 shape wrong")
	}
	if !strings.Contains(f5.Render(), "Figure 5") {
		t.Error("figure 5 render")
	}
	// The central claim: gains with SWP on are smaller than with SWP off.
	f4, err := Figure4(e)
	if err != nil {
		t.Fatal(err)
	}
	if f5.Summary.OracleAll >= f4.Summary.OracleAll {
		t.Errorf("SWP-on oracle %.3f should trail SWP-off oracle %.3f",
			f5.Summary.OracleAll, f4.Summary.OracleAll)
	}
}

func TestUnionNames(t *testing.T) {
	e := testEnv(t)
	fs, err := e.Features()
	if err != nil {
		t.Fatal(err)
	}
	names := UnionNames(fs)
	if len(names) != len(fs.Union) || len(names) == 0 {
		t.Errorf("union names = %v", names)
	}
}

func TestTable1(t *testing.T) {
	e := testEnv(t)
	r, err := Table1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 38 || len(r.Descriptions) != 38 || len(r.Example) != 38 {
		t.Fatalf("table 1 lengths: %d/%d/%d", len(r.Names), len(r.Descriptions), len(r.Example))
	}
	for i, d := range r.Descriptions {
		if d == "" {
			t.Errorf("feature %d has no description", i)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "tripcount") {
		t.Errorf("table 1 render:\n%s", out)
	}
}

// TestTrainCapZeroMeansNoCap: Config.TrainCap 0 reaches core.Speedups as
// 0, its "no cap", and any other cap passes through unchanged.
func TestTrainCapZeroMeansNoCap(t *testing.T) {
	for _, c := range []int{0, 250, DefaultConfig().TrainCap} {
		if got := speedupOptions(Config{Seed: 9, TrainCap: c}); got.TrainCap != c || got.Seed != 40 {
			t.Errorf("TrainCap %d: fold options %+v", c, got)
		}
	}
}
