package experiments

import (
	"slices"
	"testing"
)

// TestPaperShapes runs the experiments at seed 2005, scale 0.3 and 10
// runs, with the command line's caps, and checks the headline shapes
// EXPERIMENTS.md reports — orderings and bounds, not numbers — so a change
// that moves a shape fails here rather than silently.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at scale 0.3")
	}
	cfg := DefaultConfig()
	cfg.Scale, cfg.Runs = 0.3, 10
	e := NewEnv(cfg)

	t2, err := Table2(e)
	if err != nil {
		t.Fatal(err)
	}
	nn, svm, orc := t2.Table.NNFrac[0], t2.Table.SVMFrac[0], t2.Table.HeurFrac[0]
	if !(svm > nn && nn > orc) {
		t.Errorf("Table 2: optimal share SVM %.2f, NN %.2f, ORC %.2f; want SVM > NN > ORC", svm, nn, orc)
	}

	t3, err := Table3(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t3.Rows {
		if row.Name == "num_ops" {
			t.Errorf("Table 3: num_ops is in the mutual-information top five")
		}
	}

	t4, err := Table4(e)
	if err != nil {
		t.Fatal(err)
	}
	var nnNames, svmNames []string
	for _, r := range t4.NN {
		nnNames = append(nnNames, r.Name)
	}
	for _, r := range t4.SVM {
		svmNames = append(svmNames, r.Name)
	}
	if slices.Equal(nnNames, svmNames) {
		t.Errorf("Table 4: NN and SVM select the same features %v", nnNames)
	}

	f3, err := Figure3(e)
	if err != nil {
		t.Fatal(err)
	}
	var odd float64
	for u, share := range f3.Hist {
		if u > 0 && u&(u-1) != 0 {
			odd += share
		}
	}
	if odd > 0.15 {
		t.Errorf("Figure 3: non-power-of-two factors are optimal for %.1f%% of loops, want at most 15%%", 100*odd)
	}

	f4, err := Figure4(e)
	if err != nil {
		t.Fatal(err)
	}
	s4 := f4.Summary
	if !(s4.SVMAll > s4.NNAll && s4.NNAll > 0) {
		t.Errorf("Figure 4: overall SVM %+.3f, NN %+.3f; want SVM > NN > 0", s4.SVMAll, s4.NNAll)
	}
	if s4.OracleAll < s4.SVMAll {
		t.Errorf("Figure 4: overall oracle %+.3f below SVM %+.3f", s4.OracleAll, s4.SVMAll)
	}
	if s4.SVMFP <= s4.SVMAll {
		t.Errorf("Figure 4: SVM SPECfp %+.3f not above overall %+.3f", s4.SVMFP, s4.SVMAll)
	}

	f5, err := Figure5(e)
	if err != nil {
		t.Fatal(err)
	}
	s5 := f5.Summary
	if s5.SVMAll >= s4.SVMAll || s5.SVMFP >= s4.SVMFP {
		t.Errorf("Figure 5: SVM overall %+.3f and SPECfp %+.3f, want both below Figure 4's %+.3f and %+.3f",
			s5.SVMAll, s5.SVMFP, s4.SVMAll, s4.SVMFP)
	}
	t.Logf("Table 2 optimal: SVM %.2f NN %.2f ORC %.2f; Figure 3 non-power-of-two %.1f%%; "+
		"Figure 4 SVM %+.1f%% (SPECfp %+.1f%%), NN %+.1f%%, oracle %+.1f%%; Figure 5 SVM %+.1f%% (SPECfp %+.1f%%)",
		svm, nn, orc, 100*odd, 100*s4.SVMAll, 100*s4.SVMFP, 100*s4.NNAll, 100*s4.OracleAll, 100*s5.SVMAll, 100*s5.SVMFP)
}
