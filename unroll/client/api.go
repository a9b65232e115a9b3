// Package client is the Go client for the unrolld prediction service and
// the home of its wire types. The server (internal/serve) and this client
// marshal the same structs, so the two cannot drift.
package client

import "time"

// PredictRequest asks for the unroll factor of one loop: either LoopLang
// source containing exactly one kernel, or a pre-extracted feature vector
// (the full 38-element vector or one already projected onto the served
// model's feature subset). Exactly one of the two must be set.
type PredictRequest struct {
	Source   string    `json:"source,omitempty"`
	Features []float64 `json:"features,omitempty"`
}

// PredictResponse is the answer to POST /v1/predict.
type PredictResponse struct {
	Factor int    `json:"factor"`
	Loop   string `json:"loop,omitempty"` // kernel name, for source requests
	Cached bool   `json:"cached,omitempty"`
	// Model identity the prediction came from, so build farms can tie
	// compile-time decisions to a model artifact.
	ModelVersion int    `json:"model_version"`
	Fingerprint  string `json:"fingerprint"`
}

// PredictV2Request is the body of POST /v2/predict: a v1 request plus the
// multi-model routing fields. Model pins a registry version by fingerprint
// or alias (empty means the promoted default); Tenant labels the request
// for per-tenant accounting and SLO slices.
type PredictV2Request struct {
	PredictRequest
	Model  string `json:"model,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

// BatchRequest is the body of POST /v1/predict/batch.
type BatchRequest struct {
	Loops []PredictRequest `json:"loops"`
}

// BatchV2Request is the body of POST /v2/predict/batch; Model and Tenant
// apply to every loop in the batch.
type BatchV2Request struct {
	Loops  []PredictRequest `json:"loops"`
	Model  string           `json:"model,omitempty"`
	Tenant string           `json:"tenant,omitempty"`
}

// BatchResult is one loop's outcome inside a batch response. Factor is
// meaningful only when Error is empty.
type BatchResult struct {
	Factor int    `json:"factor,omitempty"`
	Loop   string `json:"loop,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// BatchResponse answers a batch request, index-aligned with the request.
type BatchResponse struct {
	Results      []BatchResult `json:"results"`
	ModelVersion int           `json:"model_version"`
	Fingerprint  string        `json:"fingerprint"`
}

// ReloadRequest is the body of POST /v1/admin/reload. An empty path
// reloads the artifact the server was started with.
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ModelInfo is the common envelope every admin surface answers with: the
// identity of one model version. GET /v1/model returns the promoted
// default; Reload, Shadow, and the registry endpoints embed or return the
// version they acted on.
type ModelInfo struct {
	Algorithm    string `json:"algorithm,omitempty"`
	ModelVersion int    `json:"model_version"`
	Fingerprint  string `json:"fingerprint"`
	Path         string `json:"path,omitempty"`
	// Compiled is the versioned fingerprint of the compiled lowering that
	// answers batches of loops.
	Compiled string    `json:"compiled,omitempty"`
	LoadedAt time.Time `json:"loaded_at"`
	// Registry placement: Default marks the promoted version, Pinned a
	// version protected from LRU eviction, Aliases its bound names.
	Default bool     `json:"default,omitempty"`
	Pinned  bool     `json:"pinned,omitempty"`
	Aliases []string `json:"aliases,omitempty"`
}

// ReloadResponse reports the model swap: the ModelInfo of the newly
// promoted version plus the fingerprint it displaced.
type ReloadResponse struct {
	ModelInfo
	Previous string `json:"previous"`
}

// ShadowRequest is the body of POST /v1/admin/shadow: load the artifact
// at Path as the shadow candidate and mirror Fraction (0,1] of predict
// traffic to it. Fraction 0 disables shadowing.
type ShadowRequest struct {
	Path     string  `json:"path,omitempty"`
	Fraction float64 `json:"fraction"`
}

// ShadowResponse reports the shadow candidate that was loaded (or that
// shadowing was disabled), as the common ModelInfo envelope plus the
// mirroring state.
type ShadowResponse struct {
	Enabled  bool    `json:"enabled"`
	Fraction float64 `json:"fraction,omitempty"`
	ModelInfo
}

// ShadowConfusionCell is one nonzero cell of the decision confusion
// matrix: Count mirrored requests where the live model answered Primary
// and the shadow answered Shadow.
type ShadowConfusionCell struct {
	Primary int   `json:"primary"`
	Shadow  int   `json:"shadow"`
	Count   int64 `json:"count"`
}

// ShadowReport answers GET /v1/shadow/report: the accumulated agreement
// between the live model and the shadow candidate. Sampled counts the
// requests eligible for mirroring; Mirrored the ones actually scored;
// Dropped the ones shed because the mirror queue was full. Latency means
// are measured back-to-back on the same inputs off the serving path, so
// MeanDeltaUS isolates the model cost difference.
type ShadowReport struct {
	Enabled      bool      `json:"enabled"`
	Path         string    `json:"path,omitempty"`
	Fingerprint  string    `json:"fingerprint,omitempty"`
	ModelVersion int       `json:"model_version,omitempty"`
	Fraction     float64   `json:"fraction,omitempty"`
	StartedAt    time.Time `json:"started_at,omitempty"`

	Sampled  int64 `json:"sampled"`
	Mirrored int64 `json:"mirrored"`
	Agree    int64 `json:"agree"`
	Disagree int64 `json:"disagree"`
	Errors   int64 `json:"errors"`
	Dropped  int64 `json:"dropped"`

	AgreementRate float64 `json:"agreement_rate"`
	MeanPrimaryUS float64 `json:"mean_primary_us"`
	MeanShadowUS  float64 `json:"mean_shadow_us"`
	MeanDeltaUS   float64 `json:"mean_delta_us"`

	Confusion []ShadowConfusionCell `json:"confusion,omitempty"`
}

// ModelLoadRequest is the body of POST /v1/admin/models/load: stage the
// artifact at Path in the registry without promoting it. Alias optionally
// binds a stable name ("canary", "tenant-a") to the version; Pin protects
// it from LRU eviction.
type ModelLoadRequest struct {
	Path  string `json:"path"`
	Alias string `json:"alias,omitempty"`
	Pin   bool   `json:"pin,omitempty"`
}

// ModelRefRequest names one registry version by fingerprint (or unique
// prefix) or alias; the body of promote and evict.
type ModelRefRequest struct {
	Model string `json:"model"`
}

// ModelsResponse answers GET /v1/admin/models: every resident version,
// default first.
type ModelsResponse struct {
	Default string      `json:"default,omitempty"`
	Models  []ModelInfo `json:"models"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
