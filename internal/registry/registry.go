// Package registry manages the set of model versions a serve instance can
// answer with. Every version is keyed by its artifact fingerprint; aliases
// bind stable names ("canary", "tenant-a") to versions; one version is the
// promoted default that unpinned traffic is served by. Residency is
// LRU-bounded: loading past MaxModels evicts the least-recently-resolved
// version that is neither pinned nor the default. All mutations are safe
// for concurrent use, and the default-version read is a single atomic load
// so the predict hot path never takes the registry lock.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metaopt/internal/atomicio"
	"metaopt/internal/obs"
	"metaopt/unroll"
)

var (
	mLoads        = obs.C("registry.loads")
	mEvictions    = obs.C("registry.evictions")
	mPromotions   = obs.C("registry.promotions")
	mResident     = obs.G("registry.models")
	mOverBound    = obs.C("registry.overbound")
	mStateWrites  = obs.C("registry.state_writes")
	mStateCorrupt = obs.C("registry.state_corrupt")
)

// Model is one immutable loaded version: the trained predictor, which
// answers single queries, its compiled lowering, which answers batches,
// and provenance. Promotion and eviction move pointers; a Model's
// contents never change after insert, so holders may keep serving from
// one across any registry mutation.
type Model struct {
	Pred     *unroll.Predictor
	Comp     *unroll.CompiledPredictor
	Path     string
	LoadedAt time.Time
}

// Fingerprint is the version key: the artifact fingerprint of the
// trained predictor.
func (m *Model) Fingerprint() string { return m.Pred.Fingerprint() }

// Snapshot is one version's registry placement at List time.
type Snapshot struct {
	Model   *Model
	Default bool
	Pinned  bool
	Aliases []string
}

// Config configures a Registry.
type Config struct {
	// MaxModels bounds resident versions (default 8). Pinned versions and
	// the default never count against eviction; when everything resident
	// is protected the bound is allowed to overflow rather than refuse a
	// load.
	MaxModels int
	// StatePath, when set, persists a manifest of resident versions
	// (paths, aliases, pins, default) through atomicio on every mutation,
	// and Restore reloads it at boot.
	StatePath string
}

type entry struct {
	model    *Model
	pinned   bool
	aliases  []string
	lastUsed int64 // recency sequence, not wall time
}

// Registry is the versioned model store.
type Registry struct {
	cfg Config
	def atomic.Pointer[Model]

	mu      sync.Mutex
	entries map[string]*entry // fingerprint → entry
	aliases map[string]string // alias → fingerprint
	seq     int64
}

// Sentinel errors; every failure from Resolve/Promote/Evict wraps one.
var (
	ErrNotFound  = errors.New("model not found in registry")
	ErrAmbiguous = errors.New("model reference is ambiguous")
	ErrDefault   = errors.New("cannot evict the default model")
	ErrNoDefault = errors.New("registry has no default model")
)

// New builds an empty registry.
func New(cfg Config) *Registry {
	if cfg.MaxModels <= 0 {
		cfg.MaxModels = 8
	}
	return &Registry{
		cfg:     cfg,
		entries: make(map[string]*entry),
		aliases: make(map[string]string),
	}
}

// LoadModel reads and compiles the artifact at path without making it
// resident; Load inserts the model it returns.
func LoadModel(path string) (*Model, error) {
	pred, err := unroll.LoadPredictorFile(path)
	if err != nil {
		return nil, err
	}
	return newModel(pred, path)
}

// newModel compiles pred for serving; a predictor that fails to compile is
// refused like any other bad artifact.
func newModel(pred *unroll.Predictor, path string) (*Model, error) {
	comp, err := unroll.Compile(pred)
	if err != nil {
		return nil, fmt.Errorf("registry: compile %s: %w", short(pred.Fingerprint()), err)
	}
	return &Model{Pred: pred, Comp: comp, Path: path, LoadedAt: time.Now()}, nil
}

// Load loads the artifact at path (see LoadModel) and inserts it.
func (r *Registry) Load(path, alias string, pin bool) (*Model, error) {
	m, err := LoadModel(path)
	if err != nil {
		return nil, err
	}
	return r.insert(m, alias, pin), nil
}

// Insert compiles an already-loaded predictor and adds it as a resident
// version. Re-inserting a resident fingerprint refreshes its alias and pin
// rather than duplicating it. The first version ever inserted becomes the
// default.
func (r *Registry) Insert(pred *unroll.Predictor, path, alias string, pin bool) (*Model, error) {
	m, err := newModel(pred, path)
	if err != nil {
		return nil, err
	}
	return r.insert(m, alias, pin), nil
}

// insert makes m resident; see Insert.
func (r *Registry) insert(m *Model, alias string, pin bool) *Model {
	fp := m.Fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[fp]
	if !ok {
		e = &entry{model: m}
		r.entries[fp] = e
		mLoads.Inc()
	}
	e.pinned = e.pinned || pin
	if alias != "" {
		r.bindAliasLocked(alias, fp)
	}
	r.touchLocked(e)
	if r.def.Load() == nil {
		r.def.Store(e.model)
	}
	r.evictOverflowLocked(fp)
	mResident.Set(int64(len(r.entries)))
	r.saveLocked()
	return e.model
}

// Default returns the promoted version — one atomic load, no lock — or nil
// for an empty registry.
func (r *Registry) Default() *Model { return r.def.Load() }

// Resolve maps a reference to a resident version and marks it recently
// used. An empty ref means the default; otherwise ref is an alias, a full
// fingerprint, or a unique fingerprint prefix of at least 8 characters.
func (r *Registry) Resolve(ref string) (*Model, error) {
	if ref == "" {
		if m := r.def.Load(); m != nil {
			return m, nil
		}
		return nil, ErrNoDefault
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.lookupLocked(ref)
	if err != nil {
		return nil, err
	}
	r.touchLocked(e)
	return e.model, nil
}

// Promote atomically makes the referenced version the default. Returns the
// newly promoted version.
func (r *Registry) Promote(ref string) (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.lookupLocked(ref)
	if err != nil {
		return nil, err
	}
	r.touchLocked(e)
	r.def.Store(e.model)
	mPromotions.Inc()
	r.saveLocked()
	return e.model, nil
}

// Evict removes the referenced version. The default cannot be evicted —
// promote a replacement first. Pinning protects from LRU pressure only,
// not from an explicit evict.
func (r *Registry) Evict(ref string) (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.lookupLocked(ref)
	if err != nil {
		return nil, err
	}
	if d := r.def.Load(); d != nil && d.Fingerprint() == e.model.Fingerprint() {
		return nil, fmt.Errorf("%w (%s)", ErrDefault, short(e.model.Fingerprint()))
	}
	r.removeLocked(e.model.Fingerprint())
	mEvictions.Inc()
	mResident.Set(int64(len(r.entries)))
	r.saveLocked()
	return e.model, nil
}

// List snapshots every resident version: default first, then by
// fingerprint for a stable order.
func (r *Registry) List() []Snapshot {
	d := r.def.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, len(r.entries))
	for fp, e := range r.entries {
		out = append(out, Snapshot{
			Model:   e.model,
			Default: d != nil && d.Fingerprint() == fp,
			Pinned:  e.pinned,
			Aliases: append([]string(nil), e.aliases...),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Default != out[j].Default {
			return out[i].Default
		}
		return out[i].Model.Fingerprint() < out[j].Model.Fingerprint()
	})
	return out
}

// lookupLocked resolves ref (alias, fingerprint, or ≥8-char unique
// fingerprint prefix) to its entry.
func (r *Registry) lookupLocked(ref string) (*entry, error) {
	if fp, ok := r.aliases[ref]; ok {
		return r.entries[fp], nil
	}
	if e, ok := r.entries[ref]; ok {
		return e, nil
	}
	if len(ref) >= 8 {
		var found *entry
		for fp, e := range r.entries {
			if strings.HasPrefix(fp, ref) {
				if found != nil {
					return nil, fmt.Errorf("%w: %q matches multiple fingerprints", ErrAmbiguous, ref)
				}
				found = e
			}
		}
		if found != nil {
			return found, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, ref)
}

func (r *Registry) bindAliasLocked(alias, fp string) {
	if old, ok := r.aliases[alias]; ok && old != fp {
		// Rebinding moves the name (that is how "canary" rolls forward).
		if oe := r.entries[old]; oe != nil {
			oe.aliases = slices.DeleteFunc(oe.aliases, func(a string) bool { return a == alias })
		}
	}
	r.aliases[alias] = fp
	if e := r.entries[fp]; !slices.Contains(e.aliases, alias) {
		e.aliases = append(e.aliases, alias)
	}
}

func (r *Registry) touchLocked(e *entry) {
	r.seq++
	e.lastUsed = r.seq
}

// evictOverflowLocked enforces the LRU bound: while over MaxModels, drop
// the least-recently-resolved version that is neither pinned, the default,
// nor the version whose insert triggered the pass (loading a model and
// instantly evicting it would make the load a no-op). When every resident
// version is protected the bound overflows (counted) rather than refusing
// the load that got us here.
func (r *Registry) evictOverflowLocked(keep string) {
	d := r.def.Load()
	for len(r.entries) > r.cfg.MaxModels {
		var victim string
		var vAge int64
		for fp, e := range r.entries {
			if fp == keep || e.pinned || (d != nil && d.Fingerprint() == fp) {
				continue
			}
			if victim == "" || e.lastUsed < vAge {
				victim, vAge = fp, e.lastUsed
			}
		}
		if victim == "" {
			mOverBound.Inc()
			return
		}
		r.removeLocked(victim)
		mEvictions.Inc()
	}
}

func (r *Registry) removeLocked(fp string) {
	e := r.entries[fp]
	for _, a := range e.aliases {
		delete(r.aliases, a)
	}
	delete(r.entries, fp)
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// manifest is the persisted registry state: enough to rebuild residency
// after a restart. Versions whose artifacts are gone are skipped with a
// log line rather than failing the boot.
type manifest struct {
	Default string          `json:"default,omitempty"`
	Models  []manifestEntry `json:"models"`
}

type manifestEntry struct {
	Path        string   `json:"path"`
	Fingerprint string   `json:"fingerprint"`
	Pinned      bool     `json:"pinned,omitempty"`
	Aliases     []string `json:"aliases,omitempty"`
}

// saveLocked persists the manifest when a StatePath is configured.
// In-memory versions with no artifact path cannot be restored and are
// recorded pathless (skipped on restore).
func (r *Registry) saveLocked() {
	if r.cfg.StatePath == "" {
		return
	}
	var man manifest
	if d := r.def.Load(); d != nil {
		man.Default = d.Fingerprint()
	}
	for fp, e := range r.entries {
		man.Models = append(man.Models, manifestEntry{
			Path:        e.model.Path,
			Fingerprint: fp,
			Pinned:      e.pinned,
			Aliases:     append([]string(nil), e.aliases...),
		})
	}
	sort.Slice(man.Models, func(i, j int) bool { return man.Models[i].Fingerprint < man.Models[j].Fingerprint })
	err := atomicio.WriteFile(r.cfg.StatePath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
	if err != nil {
		log.Printf("registry: persist state to %s: %v", r.cfg.StatePath, err)
		return
	}
	mStateWrites.Inc()
}

// Restore reloads the manifest at StatePath, if present, re-inserting
// every version whose artifact still loads and re-promoting the recorded
// default. Missing or unreadable artifacts are skipped with a log line;
// a missing manifest is not an error; a corrupted manifest degrades to an
// empty registry (counted on registry.state_corrupt) rather than failing
// the boot — the state file is a residency cache, and a node that comes up
// empty can be reloaded, while a node that refuses to boot serves nobody.
// Returns the number of versions restored.
func (r *Registry) Restore() (int, error) {
	if r.cfg.StatePath == "" {
		return 0, nil
	}
	raw, err := os.ReadFile(r.cfg.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		mStateCorrupt.Inc()
		log.Printf("registry: state %s is corrupt (%v); starting with an empty registry", r.cfg.StatePath, err)
		return 0, nil
	}
	n := 0
	for _, me := range man.Models {
		if me.Path == "" {
			continue
		}
		alias := ""
		if len(me.Aliases) > 0 {
			alias = me.Aliases[0]
		}
		m, err := r.Load(me.Path, alias, me.Pinned)
		if err != nil {
			log.Printf("registry: restore %s (%s): %v; skipping", me.Path, short(me.Fingerprint), err)
			continue
		}
		r.mu.Lock()
		for _, a := range me.Aliases[min(1, len(me.Aliases)):] {
			r.bindAliasLocked(a, m.Fingerprint())
		}
		r.mu.Unlock()
		if me.Fingerprint != "" && me.Fingerprint != m.Fingerprint() {
			log.Printf("registry: restore %s: artifact fingerprint %s differs from recorded %s (retrained in place?)",
				me.Path, short(m.Fingerprint()), short(me.Fingerprint))
		}
		n++
	}
	if man.Default != "" {
		if _, err := r.Promote(man.Default); err != nil {
			log.Printf("registry: restore default %s: %v", short(man.Default), err)
		}
	}
	return n, nil
}
