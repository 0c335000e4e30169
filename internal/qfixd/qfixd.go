// Package qfixd is the resident diagnosis service: one long-lived
// process owning many histstore directories (one per tenant), a shared
// scheduler pool, and an optional shared worker fleet, multiplexing
// concurrent append/complain/diagnose requests from many clients onto
// them.
//
// The one-shot entry points (qfix.Diagnose, the qfix CLI) wire the
// whole engine up per call: a scheduler's goroutines, a coordinator's
// connections, and a store's caches all live exactly as long as one
// diagnosis. That is the right shape for a batch audit and the wrong
// one for a deployment that diagnoses continuously: every call re-dials
// the fleet, re-materializes impact closures, and fights other calls
// for cores without any admission policy. qfixd inverts the ownership —
//
//   - one sched.Pool (Config.PoolWorkers) runs every diagnosis's batch
//     and partition scans via core.Options.Scheduler, so concurrent
//     diagnoses share cores instead of over-subscribing them;
//   - one dist.Coordinator (Config.Workers) holds the fleet
//     connections; each diagnosis gets a private encoding memo via
//     Coordinator.Solver, so tenants never thrash each other's
//     encodings;
//   - one histstore.Store per tenant stays open with its impact cache
//     warm across requests (the stores are themselves
//     concurrency-safe: appends keep landing while diagnoses run);
//   - admission control bounds concurrent diagnoses globally
//     (Config.MaxInflight) and queues excess per tenant, draining the
//     queues round-robin so a flooding tenant cannot starve the rest,
//     and rejecting beyond Config.TenantQueue with ErrBusy instead of
//     queueing unboundedly;
//   - each tenant keeps the last answer it sent over the wire (memo):
//     a diagnose request that repeats the question exactly — same
//     store, same history, same complaints, same options — costs a
//     lookup and one write of the bytes already encoded, with no engine
//     run and no admission slot. An append, a checkpoint, a complaint,
//     another option value or an eviction each change the question and
//     run the engine, whose answer is rendered from the store's own SQL
//     text except for the statements the repair rewrote.
//
// The determinism guarantee survives residency: a diagnosis adjudicates
// its scans in submission order whether jobs run on the shared pool or
// on per-call goroutines (see internal/sched), so a repair computed by
// qfixd is byte-identical to the same diagnosis run by the qfix CLI.
// The e2e tests pin exactly that.
//
// Server (server.go) speaks a newline-delimited JSON protocol over TCP
// (wire.go), framed by internal/frameconn as the dist worker protocol
// is; Client (client.go) is the matching Go client.
package qfixd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/histstore"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sched"
)

// DefaultTenantQueue is the per-tenant cap on diagnoses waiting for an
// inflight slot when Config.TenantQueue is zero.
const DefaultTenantQueue = 16

// DefaultMaxOpenStores is the resident tenant-store cap when
// Config.MaxOpenStores is zero.
const DefaultMaxOpenStores = 64

// DefaultStoreIdle is how long an unused tenant store stays resident
// when Config.StoreIdle is zero.
const DefaultStoreIdle = 15 * time.Minute

// ErrDraining is returned for new work while the service shuts down.
var ErrDraining = errors.New("qfixd: draining")

// Config configures a Service.
type Config struct {
	// Dir is the root data directory; each tenant's histstore lives in
	// a subdirectory named after the tenant.
	Dir string
	// MaxInflight bounds concurrent diagnoses across all tenants.
	// Zero picks runtime.GOMAXPROCS; negative forces one at a time.
	MaxInflight int
	// TenantQueue caps how many diagnoses per tenant may wait for a
	// slot; requests beyond it fail fast with ErrBusy. Zero picks
	// DefaultTenantQueue; negative disables waiting entirely.
	TenantQueue int
	// Workers lists qfix-worker addresses; when non-empty the service
	// holds one shared coordinator over them for its whole lifetime,
	// with one persistent multiplexed connection per worker.
	Workers []string
	// Partition is the default Options.Partition for diagnoses that do
	// not request one. Zero leaves them unpartitioned locally and, over
	// a fleet, at one partition per worker.
	Partition int
	// PoolWorkers sizes the resident scheduler pool shared by every
	// diagnosis's scans. Zero picks runtime.GOMAXPROCS.
	PoolWorkers int
	// MaxOpenStores bounds how many tenant stores stay resident at
	// once. Lookups evict least-recently-used idle stores (no request
	// pinning them, no staged complaints) over the cap. Zero picks
	// DefaultMaxOpenStores; negative removes the cap.
	MaxOpenStores int
	// StoreIdle is how long an unused tenant store stays resident
	// before a lookup may evict it regardless of the cap. Zero picks
	// DefaultStoreIdle; negative disables idle-based eviction (stores
	// are evicted only over the MaxOpenStores cap).
	StoreIdle time.Duration
	// TraceDir, when set, roots a span tree per diagnose request and
	// writes it to <TraceDir>/<tenant>-<seq>.jsonl.
	TraceDir string
	// Logf, when set, receives one line per request and lifecycle event.
	Logf func(format string, args ...any)
}

// Service owns the resident state and serves tenant operations. It is
// safe for concurrent use; Server exposes it over TCP, and tests and
// embedded deployments may call it directly.
type Service struct {
	cfg   Config
	pool  *sched.Pool
	coord *dist.Coordinator
	adm   *admission

	mu      sync.Mutex
	tenants map[string]*tenant // guarded by mu
	closed  bool               // guarded by mu

	draining atomic.Bool
	inflight sync.WaitGroup
	traceSeq atomic.Uint64
}

// tenant is one tenant's resident state: its open store, the
// complaints staged (via the complain op) for its next diagnosis, and
// the last answer it sent over the wire.
//
// refs pins the store against eviction: lookup increments it (under
// the service mutex, so a pin and an eviction cannot interleave) and
// every operation releases it when done, so the store a request is
// using can never be closed under it. lastUse drives LRU and idle
// eviction. Lock order is always s.mu before tn.mu.
type tenant struct {
	mu      sync.Mutex
	store   *histstore.Store // guarded by mu
	staged  []core.Complaint // guarded by mu
	refs    int              // guarded by mu — operations currently using the store
	lastUse time.Time        // guarded by mu — last pin or release
	memo    *memo            // guarded by mu — immutable once published; replaced, never edited
}

// memo is the last diagnosis a tenant answered over the wire: the
// question — which store, which history of it (histstore.View: the
// generation and length name a log exactly), the whole complaint list
// (staged then inline) and the request's options — and the answer as
// the wire carries it. A diagnosis is a deterministic function of
// exactly those, so a request that asks the same question again gets
// the same bytes without running the engine or waiting for a slot.
// The comparison is on the values themselves, floats bit for bit, never
// on a digest; an append (length), a checkpoint (generation), another
// complaint, another option or a reopened store all differ somewhere
// and run the engine. One entry per tenant: the case it serves is the
// audit repeated until something changes.
type memo struct {
	store      *histstore.Store
	gen        int64
	n          int
	complaints []core.Complaint
	opt        DiagnoseOptions
	tail       []byte // answerTail: the frame from its "id" value on
}

// NewService builds the resident state: the scheduler pool starts
// immediately, the coordinator dials lazily on first dispatch (dist
// transports are lazy), stores open on first use per tenant.
func NewService(cfg Config) *Service {
	pw := cfg.PoolWorkers
	if pw <= 0 {
		pw = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		cfg:     cfg,
		pool:    sched.NewPool(pw),
		adm:     newAdmission(cfg.MaxInflight, cfg.TenantQueue),
		tenants: make(map[string]*tenant),
	}
	if len(cfg.Workers) > 0 {
		s.coord = dist.Connect(dist.Config{Logf: cfg.Logf}, cfg.Workers...)
	}
	return s
}

// Drain marks the service as draining: new diagnoses (and other tenant
// ops) fail with ErrDraining while in-flight diagnoses run to
// completion. Wait blocks until they have.
func (s *Service) Drain() {
	s.mu.Lock() // see run: a diagnosis registers in inflight under mu
	s.draining.Store(true)
	s.mu.Unlock()
}

// Wait blocks until every in-flight diagnosis has finished.
func (s *Service) Wait() { s.inflight.Wait() }

// Close drains, waits for in-flight diagnoses, and releases everything:
// tenant stores, the fleet coordinator, and the scheduler pool.
func (s *Service) Close() error {
	s.Drain()
	s.Wait()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	tenants := s.tenants
	s.tenants = make(map[string]*tenant)
	s.mu.Unlock()
	var first error
	for _, tn := range tenants {
		tn.mu.Lock()
		store := tn.store
		tn.store = nil
		tn.mu.Unlock()
		if store == nil {
			continue
		}
		if err := store.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.coord != nil {
		if err := s.coord.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.pool.Close()
	return first
}

// validTenant reports whether name is usable as a tenant (and thus a
// directory) name: non-empty, no path separators or traversal.
func validTenant(name string) bool {
	if name == "" || name == "." || name == ".." || len(name) > 128 {
		return false
	}
	return !strings.ContainsAny(name, "/\\\x00")
}

// tenantDir is the tenant's histstore directory.
func (s *Service) tenantDir(name string) string {
	return filepath.Join(s.cfg.Dir, name)
}

// lookup returns the tenant's resident state and its open store,
// opening the store from disk on first use (or after an eviction). The
// store is pinned against eviction until the caller's release. Each
// lookup also sweeps the tenant table for evictable stores, so the
// resident set stays bounded without a background goroutine.
func (s *Service) lookup(name string) (*tenant, *histstore.Store, error) {
	if !validTenant(name) {
		return nil, nil, fmt.Errorf("qfixd: invalid tenant name %q", name)
	}
	now := time.Now() // eviction clock: decides cache residency only, never a diagnosis input
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrDraining
	}
	s.evictLocked(now)
	if tn, ok := s.tenants[name]; ok {
		tn.mu.Lock()
		tn.refs++
		tn.lastUse = now
		store := tn.store
		tn.mu.Unlock()
		return tn, store, nil
	}
	store, err := histstore.Open(s.tenantDir(name))
	if err != nil {
		return nil, nil, fmt.Errorf("qfixd: tenant %q: %w", name, err)
	}
	tn := &tenant{store: store, refs: 1, lastUse: now}
	s.tenants[name] = tn
	mTenants.Set(int64(len(s.tenants)))
	return tn, store, nil
}

// release unpins a tenant after an operation; paired with every
// successful lookup.
func (s *Service) release(tn *tenant) {
	now := time.Now() // eviction clock: decides cache residency only, never a diagnosis input
	tn.mu.Lock()
	tn.refs--
	tn.lastUse = now
	tn.mu.Unlock()
}

// evictLocked closes and drops tenant stores that are over the
// configured residency bounds: every idle store (unpinned, nothing
// staged) past the idle deadline goes, then the least recently used
// idle stores until the open-store cap holds. Requires s.mu; pins
// cannot race the sweep because they are taken under s.mu too, and a
// tenant with staged complaints is never evicted (its staged state is
// memory-only). Evicted tenants transparently reopen from disk on
// their next lookup — warm caches are the only loss.
func (s *Service) evictLocked(now time.Time) {
	max := s.cfg.MaxOpenStores
	if max == 0 {
		max = DefaultMaxOpenStores
	}
	idle := s.cfg.StoreIdle
	if idle == 0 {
		idle = DefaultStoreIdle
	}
	if (max < 0 || len(s.tenants) <= max) && idle < 0 {
		return
	}
	type candidate struct {
		name    string
		lastUse time.Time
	}
	var idlers []candidate
	for name, tn := range s.tenants {
		tn.mu.Lock()
		if tn.refs == 0 && len(tn.staged) == 0 {
			idlers = append(idlers, candidate{name, tn.lastUse})
		}
		tn.mu.Unlock()
	}
	// Oldest first; ties break on name so the sweep order is stable.
	sort.Slice(idlers, func(i, j int) bool {
		if !idlers[i].lastUse.Equal(idlers[j].lastUse) {
			return idlers[i].lastUse.Before(idlers[j].lastUse)
		}
		return idlers[i].name < idlers[j].name
	})
	evicted := false
	for _, c := range idlers {
		expired := idle >= 0 && now.Sub(c.lastUse) >= idle
		over := max >= 0 && len(s.tenants) > max
		if !expired && !over {
			break // sorted: everything after is more recently used
		}
		tn := s.tenants[c.name]
		tn.mu.Lock()
		if tn.refs == 0 && len(tn.staged) == 0 {
			delete(s.tenants, c.name)
			if err := tn.store.Close(); err != nil {
				s.logf("qfixd: %s: closing evicted store: %v", c.name, err)
			}
			tn.store = nil
			mStoreEvictions.Inc()
			evicted = true
		}
		tn.mu.Unlock()
	}
	if evicted {
		mTenants.Set(int64(len(s.tenants)))
	}
}

// Create initializes a new tenant with the given checkpoint state.
func (s *Service) Create(name, table, key string, attrs []string, rows [][]float64) error {
	if s.draining.Load() {
		return ErrDraining
	}
	if !validTenant(name) {
		return fmt.Errorf("qfixd: invalid tenant name %q", name)
	}
	sch, err := relation.NewSchema(table, attrs, key)
	if err != nil {
		return err
	}
	d0 := relation.NewTable(sch)
	for i, row := range rows {
		if _, err := d0.Insert(row); err != nil {
			return fmt.Errorf("qfixd: row %d: %w", i+1, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrDraining
	}
	if _, ok := s.tenants[name]; ok {
		return fmt.Errorf("qfixd: tenant %q already exists", name)
	}
	store, err := histstore.Create(s.tenantDir(name), d0)
	if err != nil {
		return err
	}
	// eviction clock: decides cache residency only, never a diagnosis input
	s.tenants[name] = &tenant{store: store, lastUse: time.Now()}
	mTenants.Set(int64(len(s.tenants)))
	return nil
}

// Append durably appends SQL statements to the tenant's log, in order,
// stopping at the first statement that fails to parse or persist.
func (s *Service) Append(name string, sql []string) (int, error) {
	if s.draining.Load() {
		return 0, ErrDraining
	}
	tn, store, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	defer s.release(tn)
	for i, stmt := range sql {
		if _, err := store.AppendSQL(stmt); err != nil {
			return i, fmt.Errorf("qfixd: append statement %d: %w", i+1, err)
		}
	}
	return len(sql), nil
}

// Complain stages complaints for the tenant's next diagnosis; repeated
// calls accumulate. Staged complaints survive diagnoses (repeat audits
// reuse them warm) and clear on Checkpoint, which commits the state
// they complained about.
func (s *Service) Complain(name string, complaints []core.Complaint) (int, error) {
	if s.draining.Load() {
		return 0, ErrDraining
	}
	tn, _, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	defer s.release(tn)
	tn.mu.Lock()
	tn.staged = append(tn.staged, cloneComplaints(complaints)...)
	n := len(tn.staged)
	tn.mu.Unlock()
	return n, nil
}

// Checkpoint commits the tenant's current state as the new D0 and
// clears its staged complaints (and the answer memoised over them).
func (s *Service) Checkpoint(name string) error {
	if s.draining.Load() {
		return ErrDraining
	}
	tn, store, err := s.lookup(name)
	if err != nil {
		return err
	}
	defer s.release(tn)
	if err := store.Checkpoint(); err != nil {
		return err
	}
	tn.mu.Lock()
	tn.staged = nil
	tn.memo = nil
	tn.mu.Unlock()
	return nil
}

// TenantStats is the stats op's answer for one tenant.
type TenantStats struct {
	LogLen int `json:"log_len"`
	Staged int `json:"staged"`
}

// Stats reports a tenant's resident state (nil name stats the service:
// only the tenant count).
func (s *Service) Stats(name string) (tenants int, ts *TenantStats, err error) {
	s.mu.Lock()
	tenants = len(s.tenants)
	s.mu.Unlock()
	if name == "" {
		return tenants, nil, nil
	}
	tn, store, err := s.lookup(name)
	if err != nil {
		return tenants, nil, err
	}
	defer s.release(tn)
	tn.mu.Lock()
	staged := len(tn.staged)
	tn.mu.Unlock()
	return tenants, &TenantStats{LogLen: len(store.Log()), Staged: staged}, nil
}

// Diagnose runs one admission-controlled diagnosis for the tenant over
// its staged complaints plus the inline ones, on the shared pool (and
// fleet, when configured). ctx bounds the wait for an inflight slot —
// cancel it (e.g. when the requesting connection drops) and a queued
// request leaves the queue; requests beyond the tenant's queue cap
// fail fast with ErrBusy. It always runs the engine: the answer memo
// belongs to the wire path (answer).
func (s *Service) Diagnose(ctx context.Context, name string, complaints []core.Complaint,
	wopt *DiagnoseOptions) (*core.Repair, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	tn, store, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	// The pin spans the whole diagnosis (including the admission wait):
	// the store cannot be evicted and closed under a running solve.
	defer s.release(tn)
	tn.mu.Lock()
	all := append(cloneComplaints(tn.staged), complaints...)
	tn.mu.Unlock()
	rep, _, err := s.run(ctx, name, store, all, wopt)
	return rep, err
}

// answer serves one diagnose request of the wire: the rest of its
// response frame after the "id" value (see answerTail). A request that
// repeats the tenant's last answered question is served from the memo;
// anything else runs the engine like Diagnose, renders the answer while
// the store is still pinned — only the statements the repair rewrote,
// the store's own text for the rest — and becomes the new memo.
func (s *Service) answer(ctx context.Context, req *Request) ([]byte, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	tn, store, err := s.lookup(req.Tenant)
	if err != nil {
		return nil, err
	}
	defer s.release(tn)
	var opt DiagnoseOptions
	if req.Options != nil {
		opt = *req.Options
	}
	// The store's head is read before tn.mu is taken (an append holds
	// the store's lock across its fsync). If an append lands right
	// after, the request raced it and may be answered either way.
	head := store.Head()
	var all []core.Complaint
	tn.mu.Lock()
	m := tn.memo
	hit := m != nil && m.store == store && m.gen == head.Gen && m.n == head.Len &&
		m.opt == opt && sameComplaints(m.complaints, tn.staged, req.Complaints)
	if !hit {
		all = append(cloneComplaints(tn.staged), req.Complaints...)
	}
	tn.mu.Unlock()
	if hit {
		mRequests.Inc()
		mMemoHits.Inc()
		if s.cfg.TraceDir != "" {
			root := obs.NewTrace("qfixd")
			root.SetAttr("tenant", req.Tenant)
			root.SetAttr("memo", "hit")
			root.End()
			s.writeTrace(root, req.Tenant)
		}
		s.logf("qfixd: %s: diagnosed %d complaints: memo=hit", req.Tenant, len(m.complaints))
		return m.tail, nil
	}
	mMemoMisses.Inc()

	rep, view, err := s.run(ctx, req.Tenant, store, all, req.Options)
	if err != nil {
		return nil, err
	}
	log := slices.Clone(view.SQL)
	for _, i := range rep.Rewritten {
		log[i] = rep.Log[i].String(store.Schema())
	}
	tail, err := answerTail(log, rep)
	if err != nil {
		return nil, fmt.Errorf("qfixd: encoding the repair: %w", err)
	}
	// Only a verified repair is kept: an unresolved answer can be a time
	// limit's doing, and asking again must be allowed to do better.
	if rep.Resolved {
		tn.mu.Lock()
		tn.memo = &memo{store: store, gen: view.Gen, n: view.Len, complaints: all, opt: opt, tail: tail}
		tn.mu.Unlock()
	}
	return tail, nil
}

// sameComplaints reports whether staged followed by inline is want,
// value for value and bit for bit.
func sameComplaints(want, staged, inline []core.Complaint) bool {
	return len(want) == len(staged)+len(inline) &&
		slices.EqualFunc(want[:len(staged)], staged, sameComplaint) &&
		slices.EqualFunc(want[len(staged):], inline, sameComplaint)
}

func sameComplaint(a, b core.Complaint) bool {
	return a.TupleID == b.TupleID && a.Exists == b.Exists &&
		slices.EqualFunc(a.Values, b.Values, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}

// run takes an admission slot and runs the engine over the tenant's
// store (pinned by the caller) and the given complaints, reporting the
// history the diagnosis saw.
func (s *Service) run(ctx context.Context, name string, store *histstore.Store, all []core.Complaint,
	wopt *DiagnoseOptions) (*core.Repair, histstore.View, error) {
	var none histstore.View
	if len(all) == 0 {
		return nil, none, errors.New("qfixd: no complaints (stage some with the complain op or send them inline)")
	}

	mRequests.Inc()
	if err := s.adm.acquire(ctx, name); err != nil {
		if errors.Is(err, ErrBusy) {
			mBusy.Inc()
		}
		return nil, none, err
	}
	defer s.adm.release()
	// The drain flag is rechecked after the (possibly long) queue wait:
	// a request admitted after Drain would otherwise extend the drain
	// indefinitely under sustained load. The check and the inflight
	// registration share mu with Drain, so a diagnosis either counts
	// before Drain returns, and Wait waits for it, or sees the flag; one
	// that slipped between them would start after Wait and run on the
	// pool Close is shutting down.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, none, ErrDraining
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	mInflight.Add(1)
	defer mInflight.Add(-1)

	opt := s.options(wopt)
	var root *obs.Span
	if s.cfg.TraceDir != "" {
		root = obs.NewTrace("qfixd")
		root.SetAttr("tenant", name)
		root.SetAttr("memo", "miss")
		opt.Trace = root
	}

	start := time.Now() // latency metric and log line only; never a decision input
	rep, view, err := store.DiagnoseView(all, opt)
	elapsed := time.Since(start) // latency metric and log line only; never a decision input
	mDiagnoseSeconds.Observe(elapsed.Seconds())
	if root != nil {
		root.End()
		s.writeTrace(root, name)
	}
	if err != nil {
		s.logf("qfixd: %s: diagnose failed after %v: %v", name, elapsed.Round(time.Millisecond), err)
		return nil, none, err
	}
	s.logf("qfixd: %s: diagnosed %d complaints in %v: resolved=%v changed=%d memo=miss",
		name, len(all), elapsed.Round(time.Millisecond), rep.Resolved, len(rep.Changed))
	return rep, view, nil
}

// options resolves a request's engine options against the service.
// The partition width comes from the request, else Config.Partition,
// else (over a fleet) Install's default of one partition per worker.
func (s *Service) options(wopt *DiagnoseOptions) core.Options {
	opt := wopt.resolve()
	opt.Scheduler = s.pool
	if opt.Partition == 0 {
		opt.Partition = s.cfg.Partition
	}
	if s.coord != nil {
		s.coord.Install(&opt)
	}
	return opt
}

// writeTrace exports one request's finished span tree, best-effort: a
// failed trace write must not fail the diagnosis it describes.
func (s *Service) writeTrace(root *obs.Span, tenant string) {
	name := fmt.Sprintf("%s-%d.jsonl", tenant, s.traceSeq.Add(1))
	path := filepath.Join(s.cfg.TraceDir, name)
	f, err := os.Create(path)
	if err != nil {
		s.logf("qfixd: trace %s: %v", path, err)
		return
	}
	if err := obs.WriteTrace(f, root, name); err != nil {
		s.logf("qfixd: trace %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		s.logf("qfixd: trace %s: %v", path, err)
	}
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func cloneComplaints(cs []core.Complaint) []core.Complaint {
	if len(cs) == 0 {
		return nil
	}
	out := make([]core.Complaint, len(cs))
	for i, c := range cs {
		out[i] = core.Complaint{TupleID: c.TupleID, Exists: c.Exists,
			Values: append([]float64(nil), c.Values...)}
	}
	return out
}
