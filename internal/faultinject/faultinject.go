// Package faultinject provides deterministic, seedable injection of delays,
// cancellations, and panics at named sites in the solver pipeline.
//
// Sites are plain strings ("core/arm/medium", "exact/sap/node", ...) placed
// at solver boundaries and inside hot loops. In production the package is
// inert: Fire costs one atomic pointer load when no plan is active. Tests
// activate a Plan mapping sites to injected faults and assert that the
// pipeline still returns a feasible solution or a typed error — never a hang
// or a crash (see internal/difftest's fault matrix).
//
// Activation is process-global, so tests that activate a plan must not run
// in parallel with other solving tests. Activate returns a deactivator and
// Plans record per-site hit counts, which lets the matrix discover the live
// site list instead of pinning a stale one.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects the fault an Injection performs when it triggers.
type Kind int

const (
	// KindPanic panics with the injection's PanicValue (or a default
	// describing the site). Exercises the containment boundaries.
	KindPanic Kind = iota
	// KindDelay sleeps for Delay, but wakes early if the ctx passed to
	// Fire is cancelled — a stand-in for a slow sub-solve that still
	// honours cooperative cancellation.
	KindDelay
	// KindCancel invokes the plan's registered CancelFunc, cancelling the
	// real context the solve is running under. Exercises every
	// cooperative check downstream of the site.
	KindCancel
	// KindError makes FireErr return the injection's Err (or a default
	// error naming the site). Sites that can fail without panicking — a
	// transport dial, a response body read, an HTTP status check — call
	// FireErr and propagate the returned error through their normal error
	// path. Fire ignores KindError injections, so arming one at a
	// Fire-only site is a no-op rather than a crash.
	KindError
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCancel:
		return "cancel"
	case KindError:
		return "error"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Injection is one fault armed at one site.
type Injection struct {
	Site string
	Kind Kind
	// After skips the first After hits of the site before triggering
	// (0 = trigger on the first hit). Lets seeded plans reach deep into
	// DP loops deterministically.
	After int
	// Delay is the sleep duration for KindDelay (default 10ms).
	Delay time.Duration
	// PanicValue overrides the default panic payload for KindPanic.
	PanicValue any
	// Err overrides the default error FireErr returns for KindError.
	Err error
	// Once disarms the injection after its first trigger; otherwise it
	// triggers on every hit past After.
	Once bool
}

// Plan is a set of armed injections plus per-site hit accounting.
type Plan struct {
	mu     sync.Mutex
	rules  map[string]*rule
	hits   map[string]int
	cancel context.CancelFunc
}

type rule struct {
	inj   Injection
	fired int
	done  bool
}

// NewPlan builds a plan from the given injections. Multiple injections at
// the same site are rejected (the matrix arms one fault at a time).
func NewPlan(injections ...Injection) *Plan {
	p := &Plan{rules: make(map[string]*rule), hits: make(map[string]int)}
	for _, inj := range injections {
		if _, dup := p.rules[inj.Site]; dup {
			panic("faultinject: duplicate injection for site " + inj.Site)
		}
		if inj.Kind == KindDelay && inj.Delay == 0 {
			inj.Delay = 10 * time.Millisecond
		}
		p.rules[inj.Site] = &rule{inj: inj}
	}
	return p
}

// Observer returns an empty plan that records hits without injecting
// anything — used to discover the live site list for a given workload.
func Observer() *Plan { return NewPlan() }

// SetCancel registers the CancelFunc a KindCancel injection will invoke.
func (p *Plan) SetCancel(cancel context.CancelFunc) {
	p.mu.Lock()
	p.cancel = cancel
	p.mu.Unlock()
}

// Hits returns how many times site fired while this plan was active.
func (p *Plan) Hits(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[site]
}

// Observed returns the sorted list of sites hit at least once.
func (p *Plan) Observed() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	sites := make([]string, 0, len(p.hits))
	for s := range p.hits {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	return sites
}

// Triggered reports whether the injection armed at site has fired.
func (p *Plan) Triggered(site string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.rules[site]
	return ok && r.fired > 0
}

// active is the process-global plan; nil means the package is inert.
var active atomic.Pointer[Plan]

// Activate installs p globally and returns a deactivator. Panics if a plan
// is already active — overlapping activations would make hit accounting
// meaningless.
func Activate(p *Plan) (deactivate func()) {
	if !active.CompareAndSwap(nil, p) {
		panic("faultinject: a plan is already active")
	}
	return func() { active.CompareAndSwap(p, nil) }
}

// Enabled reports whether a plan is currently active.
func Enabled() bool { return active.Load() != nil }

// Fire marks a hit at site and performs the armed injection, if any. With
// no active plan it returns immediately after a single atomic load, so it
// is safe to place inside hot loops (call it at the same masked cadence as
// the cooperative cancellation checks).
//
// ctx is used by KindDelay so an injected stall still honours cancellation;
// pass the context flowing through the surrounding solver.
func Fire(ctx context.Context, site string) {
	p := active.Load()
	if p == nil {
		return
	}
	_ = p.fire(ctx, site, false)
}

// FireErr is Fire for sites with an error return path: in addition to the
// panic/delay/cancel kinds it returns the armed error for KindError
// injections (nil otherwise, and always nil when no plan is active). The
// caller propagates the returned error exactly as it would a real failure
// of the guarded operation:
//
//	if err := faultinject.FireErr(ctx, "session/delta"); err != nil {
//		return nil, err
//	}
func FireErr(ctx context.Context, site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fire(ctx, site, true)
}

func (p *Plan) fire(ctx context.Context, site string, wantErr bool) error {
	p.mu.Lock()
	p.hits[site]++
	r := p.rules[site]
	if r == nil || r.done || p.hits[site] <= r.inj.After ||
		(r.inj.Kind == KindError && !wantErr) {
		// A KindError injection at a Fire-only site stays armed rather
		// than firing uselessly: only FireErr can deliver it.
		p.mu.Unlock()
		return nil
	}
	r.fired++
	if r.inj.Once {
		r.done = true
	}
	inj := r.inj
	cancel := p.cancel
	p.mu.Unlock()

	switch inj.Kind {
	case KindPanic:
		v := inj.PanicValue
		if v == nil {
			v = "faultinject: injected panic at " + site
		}
		panic(v)
	case KindDelay:
		t := time.NewTimer(inj.Delay)
		defer t.Stop()
		if ctx == nil {
			<-t.C
			return nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	case KindCancel:
		if cancel != nil {
			cancel()
		}
	case KindError:
		if inj.Err != nil {
			return inj.Err
		}
		return errors.New("faultinject: injected error at " + site)
	}
	return nil
}

// FromSeed derives a deterministic single-fault plan from seed: it picks a
// site, a kind, and a small After offset pseudo-randomly. The same seed and
// site list always yield the same plan, so failures replay exactly.
func FromSeed(seed int64, sites []string) *Plan {
	if len(sites) == 0 {
		return NewPlan()
	}
	rng := rand.New(rand.NewSource(seed))
	inj := Injection{
		Site:  sites[rng.Intn(len(sites))],
		Kind:  Kind(rng.Intn(3)),
		After: rng.Intn(4),
		Delay: time.Duration(1+rng.Intn(20)) * time.Millisecond,
		Once:  true,
	}
	return NewPlan(inj)
}
