// Shadow-traffic decision diffing: a candidate model artifact is loaded
// beside the live one and a configurable fraction of predict traffic is
// mirrored to it off the critical path. The shadow never touches the bits
// a client receives — mirroring is a non-blocking enqueue onto a bounded
// queue drained by a dedicated worker — but every mirrored decision is
// compared against the answer actually served, building the agreement
// rate, per-factor confusion counts, and latency deltas an operator reads
// at /v1/shadow/report before promoting the candidate.
package serve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"metaopt/internal/registry"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

// shadowState is one loaded shadow candidate plus its accumulated
// comparison counters. A new POST /v1/admin/shadow swaps the whole state
// atomically; in-flight mirrored tasks keep scoring against the state
// they were sampled under.
type shadowState struct {
	model *registry.Model // LoadedAt is when shadowing started
	mille int64           // mirrored fraction in thousandths [0,1000]

	seq      atomic.Int64 // sampling sequence over eligible requests
	mirrored atomic.Int64
	agree    atomic.Int64
	disagree atomic.Int64
	errs     atomic.Int64
	dropped  atomic.Int64

	latPrimNS   atomic.Int64
	latShadowNS atomic.Int64

	// confusion[primary*(MaxFactor+1)+shadow] counts decision pairs,
	// factors clamped into [0,MaxFactor].
	confusion [(unroll.MaxFactor + 1) * (unroll.MaxFactor + 1)]atomic.Int64
}

// shadowTask is one mirrored decision: the request inputs plus the
// version that answered it and its factor. Inputs are per-request
// allocations, so holding them past the response is safe.
type shadowTask struct {
	st     *shadowState
	prim   *registry.Model // the version the request resolved to
	feats  []float64
	loop   *unroll.Loop
	factor int // the answer the client actually received
}

// shadowSampled reports whether mirrored-traffic sampling selects the
// n-th eligible request at the given per-mille fraction. The lattice test
// is deterministic and drift-free: over any 1000 consecutive requests
// exactly mille are selected, with no RNG on the hot path.
func shadowSampled(n, mille int64) bool {
	return (n*mille)/1000 != ((n-1)*mille)/1000
}

// maybeShadow mirrors one item that prim answered successfully to the
// shadow model. Called by the batch worker after the primary answer is
// final; the only cost on the serving path is an atomic increment and a
// non-blocking channel send. A full shadow queue drops the sample and
// counts the drop.
func (s *Server) maybeShadow(prim *registry.Model, it *item) {
	sh := s.shadow.Load()
	if sh == nil {
		return
	}
	if !shadowSampled(sh.seq.Add(1), sh.mille) {
		return
	}
	select {
	case s.shadowq <- shadowTask{st: sh, prim: prim, feats: it.feats, loop: it.loop, factor: it.factor}:
	default:
		sh.dropped.Add(1)
		mShadowDropped.Inc()
	}
}

// shadowWorker drains the mirror queue until Shutdown closes it.
func (s *Server) shadowWorker() {
	defer s.shadowWG.Done()
	for t := range s.shadowq {
		s.runShadow(t)
	}
}

// runShadow scores one mirrored decision: the shadow model predicts the
// same input, agreement and the confusion cell are recorded, and the
// shadow and the version that answered are timed back-to-back so the
// latency delta compares like with like. A panicking shadow model counts
// an error and never disturbs serving.
func (s *Server) runShadow(t shadowTask) {
	defer func() {
		if r := recover(); r != nil {
			t.st.errs.Add(1)
			mShadowErrors.Inc()
			log.Printf("serve: shadow panic: %v", r)
		}
	}()
	start := time.Now()
	_, primErr := predictOn(t.prim.Pred, t)
	primNS := time.Since(start).Nanoseconds()

	start = time.Now()
	shadowFactor, shadowErr := predictOn(t.st.model.Pred, t)
	shadowNS := time.Since(start).Nanoseconds()

	if primErr != nil || shadowErr != nil {
		t.st.errs.Add(1)
		mShadowErrors.Inc()
		return
	}
	t.st.mirrored.Add(1)
	mShadowMirrored.Inc()
	t.st.latPrimNS.Add(primNS)
	t.st.latShadowNS.Add(shadowNS)
	if shadowFactor == t.factor {
		t.st.agree.Add(1)
		mShadowAgree.Inc()
	} else {
		t.st.disagree.Add(1)
		mShadowDisagree.Inc()
	}
	t.st.confusion[confusionIdx(t.factor, shadowFactor)].Add(1)
}

// predictOn answers a mirrored task on the given trained predictor.
func predictOn(pred *unroll.Predictor, t shadowTask) (int, error) {
	if t.feats != nil {
		return pred.PredictFeatures(t.feats)
	}
	return pred.PredictCtx(context.Background(), t.loop)
}

// confusionIdx flattens a (primary, shadow) factor pair into the
// confusion array, clamping out-of-range factors to 0.
func confusionIdx(primary, shadow int) int {
	if primary < 0 || primary > unroll.MaxFactor {
		primary = 0
	}
	if shadow < 0 || shadow > unroll.MaxFactor {
		shadow = 0
	}
	return primary*(unroll.MaxFactor+1) + shadow
}

// handleShadow loads (or clears) the shadow candidate. Fraction must be
// in (0,1] to enable; 0 disables shadowing. The candidate goes through the
// registry's loader without becoming resident, so one that fails to
// compile is refused like any other bad artifact.
func (s *Server) handleShadow(w http.ResponseWriter, r *http.Request) {
	var req client.ShadowRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Fraction < 0 || req.Fraction > 1 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("fraction %v outside [0,1]", req.Fraction))
		return
	}
	if req.Fraction == 0 {
		s.shadow.Store(nil)
		mShadowActive.Set(0)
		writeJSON(w, http.StatusOK, client.ShadowResponse{Enabled: false})
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "shadow request names no artifact path")
		return
	}
	m, err := registry.LoadModel(req.Path)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("shadow load: %v", err))
		return
	}
	// A nonzero fraction mirrors at least 1 in 1000.
	st := &shadowState{model: m, mille: max(int64(req.Fraction*1000+0.5), 1)}
	s.shadow.Store(st)
	mShadowActive.Set(1)
	writeJSON(w, http.StatusOK, client.ShadowResponse{
		Enabled:   true,
		Fraction:  float64(st.mille) / 1000,
		ModelInfo: modelInfo(m),
	})
}

// handleShadowReport renders the accumulated comparison between the live
// model and the shadow candidate.
func (s *Server) handleShadowReport(w http.ResponseWriter, _ *http.Request) {
	sh := s.shadow.Load()
	if sh == nil {
		writeJSON(w, http.StatusOK, client.ShadowReport{Enabled: false})
		return
	}
	rep := client.ShadowReport{
		Enabled:      true,
		Path:         sh.model.Path,
		Fingerprint:  sh.model.Fingerprint(),
		ModelVersion: sh.model.Pred.Version(),
		Fraction:     float64(sh.mille) / 1000,
		StartedAt:    sh.model.LoadedAt,
		Sampled:      sh.seq.Load(),
		Mirrored:     sh.mirrored.Load(),
		Agree:        sh.agree.Load(),
		Disagree:     sh.disagree.Load(),
		Errors:       sh.errs.Load(),
		Dropped:      sh.dropped.Load(),
	}
	if rep.Mirrored > 0 {
		rep.AgreementRate = float64(rep.Agree) / float64(rep.Mirrored)
		rep.MeanPrimaryUS = float64(sh.latPrimNS.Load()) / float64(rep.Mirrored) / 1e3
		rep.MeanShadowUS = float64(sh.latShadowNS.Load()) / float64(rep.Mirrored) / 1e3
		rep.MeanDeltaUS = rep.MeanShadowUS - rep.MeanPrimaryUS
	}
	for p := 0; p <= unroll.MaxFactor; p++ {
		for q := 0; q <= unroll.MaxFactor; q++ {
			if n := sh.confusion[p*(unroll.MaxFactor+1)+q].Load(); n > 0 {
				rep.Confusion = append(rep.Confusion, client.ShadowConfusionCell{
					Primary: p, Shadow: q, Count: n,
				})
			}
		}
	}
	writeJSON(w, http.StatusOK, rep)
}
