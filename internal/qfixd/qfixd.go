// Package qfixd is the resident diagnosis service: one long-lived
// process owning many histstore directories (one per tenant), a shared
// scheduler pool and an optional shared worker fleet, serving
// concurrent append/complain/diagnose requests from many clients.
//
// The one-shot entry points (qfix.Diagnose, the qfix CLI) wire the
// engine up per call; a deployment that diagnoses continuously would
// re-dial the fleet, re-materialize impact closures and fight for
// cores on every call. qfixd owns them instead:
//
//   - one sched.Pool (Config.PoolWorkers) runs every diagnosis's scans
//     (core.Options.Scheduler), so concurrent diagnoses share cores;
//   - one dist.Coordinator (Config.Workers) holds the fleet
//     connections, with a private encoding memo per diagnosis;
//   - one histstore.Store per tenant stays open with its impact cache
//     warm (appends keep landing while diagnoses run);
//   - admission bounds concurrent diagnoses (Config.MaxInflight) and
//     queues excess per tenant, drained round-robin so a flooding
//     tenant cannot starve the rest, refusing beyond Config.TenantQueue
//     with ErrBusy;
//   - each tenant keeps the last answer it sent (memo): a diagnose that
//     repeats the question exactly costs a lookup and one write of the
//     bytes already encoded, with no engine run and no slot.
//
// A diagnosis adjudicates its scans in submission order on the shared
// pool too (internal/sched), so a qfixd repair is byte-identical to the
// qfix CLI's; the e2e tests pin that. Server speaks internal/dist's
// wire, the one protocol of tenants and fleet solves alike.
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

// What the zero values of Config.TenantQueue, MaxOpenStores and
// StoreIdle pick.
const (
	defaultTenantQueue   = 16
	defaultMaxOpenStores = 64
	defaultStoreIdle     = 15 * time.Minute
)

// ErrDraining is returned for new work while the service shuts down.
var ErrDraining = errors.New("qfixd: draining")

// Config configures a Service.
type Config struct {
	// Dir is the root data directory, one histstore per tenant in it.
	Dir string
	// MaxInflight bounds concurrent diagnoses across all tenants.
	// Zero picks runtime.GOMAXPROCS; negative forces one at a time.
	MaxInflight int
	// TenantQueue caps the diagnoses per tenant waiting for a slot;
	// beyond it they fail fast with ErrBusy. Zero picks
	// defaultTenantQueue; negative disables waiting.
	TenantQueue int
	// Workers lists qfix-worker addresses; when non-empty the service
	// holds one coordinator over them for its whole lifetime.
	Workers []string
	// Partition is the width of diagnoses that request none; zero is
	// unpartitioned locally, one partition per worker over a fleet.
	Partition int
	// PoolWorkers sizes the scheduler pool every diagnosis shares.
	// Zero picks runtime.GOMAXPROCS.
	PoolWorkers int
	// MaxOpenStores bounds the resident tenant stores; lookups evict
	// least-recently-used idle ones (unpinned, nothing staged) over it.
	// Zero picks defaultMaxOpenStores; negative removes the cap.
	MaxOpenStores int
	// StoreIdle is how long an unused store stays resident before a
	// lookup may evict it regardless of the cap. Zero picks
	// defaultStoreIdle; negative disables idle eviction.
	StoreIdle time.Duration
	// TraceDir, when set, roots a span tree per diagnose request and
	// writes it to <TraceDir>/<tenant>-<seq>.jsonl.
	TraceDir string
	// Logf, when set, receives one line per request and lifecycle event.
	Logf func(format string, args ...any)
}

// Service owns the resident state and serves tenant operations, safe
// for concurrent use; Server exposes it over TCP.
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
// complaints staged for its next diagnosis, and its last answer. refs
// pins the store against eviction: lookup takes a pin under s.mu, so a
// pin and an eviction cannot interleave, and every operation releases
// it. Lock order is always s.mu before tn.mu.
type tenant struct {
	mu      sync.Mutex
	store   *histstore.Store // guarded by mu
	staged  []core.Complaint // guarded by mu
	refs    int              // guarded by mu — operations currently using the store
	lastUse time.Time        // guarded by mu — last pin or release
	memo    *memo            // guarded by mu — immutable once published; replaced, never edited
}

// memo is the last diagnosis a tenant answered over the wire: the
// question — which store, which history of it (generation and length
// name a log exactly), the complaints (staged then inline) and the
// options — and the answer as the wire carries it. A diagnosis is a
// deterministic function of exactly those, compared by value (floats
// bit for bit), so the same question gets the same bytes without the
// engine; an append, a checkpoint, another complaint or option or a
// reopened store differs somewhere and runs it.
type memo struct {
	store      *histstore.Store
	gen        int64
	n          int
	complaints []core.Complaint
	opt        DiagnoseOptions
	tail       []byte // dist.AnswerTail: the frame from its "id" value on
}

// NewService builds the resident state: the pool starts now, the
// fleet's connections and the tenants' stores open on first use.
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

// Drain makes new tenant ops fail with ErrDraining while in-flight
// diagnoses run to completion (Wait).
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
	var errs []error
	for _, tn := range tenants {
		tn.mu.Lock()
		store := tn.store
		tn.store = nil
		tn.mu.Unlock()
		if store != nil {
			errs = append(errs, store.Close())
		}
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	s.pool.Close()
	return errors.Join(errs...)
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
func (s *Service) tenantDir(name string) string { return filepath.Join(s.cfg.Dir, name) }

// lookup returns the tenant's resident state and its open store,
// opening the store on first use (or after an eviction), pinned until
// the caller's release. Each lookup also sweeps for evictable stores,
// so no background goroutine is needed.
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

// release unpins a tenant after the operation of a successful lookup.
func (s *Service) release(tn *tenant) {
	now := time.Now() // eviction clock: decides cache residency only, never a diagnosis input
	tn.mu.Lock()
	tn.refs--
	tn.lastUse = now
	tn.mu.Unlock()
}

// evictLocked closes idle stores (unpinned, nothing staged: staged
// complaints live in memory only) past the idle deadline, then the
// least recently used ones until the open-store cap holds. Requires
// s.mu. Evicted tenants reopen from disk on their next lookup; warm
// caches are the only loss.
func (s *Service) evictLocked(now time.Time) {
	max := s.cfg.MaxOpenStores
	if max == 0 {
		max = defaultMaxOpenStores
	}
	idle := s.cfg.StoreIdle
	if idle == 0 {
		idle = defaultStoreIdle
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

// Complain stages complaints for the tenant's next diagnoses; repeated
// calls accumulate. They clear on Checkpoint, which commits the state
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

// Checkpoint commits the tenant's current state as the new D0,
// clearing its staged complaints and memo.
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

// Stats reports a tenant's resident state (nil name stats the service:
// only the tenant count).
func (s *Service) Stats(name string) (tenants int, ts *dist.TenantStats, err error) {
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
	return tenants, &dist.TenantStats{LogLen: len(store.Log()), Staged: staged}, nil
}

// Diagnose runs one admission-controlled diagnosis for the tenant over
// its staged complaints plus the inline ones. ctx bounds the wait for a
// slot (a canceled request leaves the queue); beyond the tenant's queue
// cap it fails fast with ErrBusy. It always runs the engine: the memo
// belongs to the wire path (Answer).
func (s *Service) Diagnose(ctx context.Context, name string, complaints []core.Complaint,
	wopt *DiagnoseOptions) (*core.Repair, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	tn, store, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	defer s.release(tn) // the pin spans the admission wait and the solve
	tn.mu.Lock()
	all := append(cloneComplaints(tn.staged), complaints...)
	tn.mu.Unlock()
	rep, _, err := s.run(ctx, name, store, all, wopt)
	return rep, err
}

// Answer serves one diagnose request of the wire: its response frame
// from the "id" value on (dist.AnswerTail). A repeat of the tenant's last
// question is served from the memo; anything else runs the engine,
// renders the answer from the store's own SQL text but for the
// statements the repair rewrote, and becomes the new memo.
func (s *Service) Answer(ctx context.Context, req *Request) ([]byte, error) {
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
	// The head is read before tn.mu (an append holds the store's lock
	// across its fsync); a request racing an append may see either.
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
	tail, err := dist.AnswerTail(log, rep)
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
	// The drain flag is rechecked after the queue wait, under mu as
	// Drain sets it: a diagnosis either counts before Drain returns (and
	// Wait waits for it) or sees the flag, never starting on the pool
	// Close is shutting down.
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

// options resolves a request's engine options against the service:
// the width is the request's, else Config.Partition, else Install's.
func (s *Service) options(wopt *DiagnoseOptions) core.Options {
	opt := wopt.Resolve()
	opt.Scheduler = s.pool
	if opt.Partition == 0 {
		opt.Partition = s.cfg.Partition
	}
	if s.coord != nil {
		s.coord.Install(&opt)
	}
	return opt
}

// writeTrace exports one request's span tree, best-effort.
func (s *Service) writeTrace(root *obs.Span, tenant string) {
	name := fmt.Sprintf("%s-%d.jsonl", tenant, s.traceSeq.Add(1))
	path := filepath.Join(s.cfg.TraceDir, name)
	f, err := os.Create(path)
	if err == nil {
		err = errors.Join(obs.WriteTrace(f, root, name), f.Close())
	}
	if err != nil {
		s.logf("qfixd: trace %s: %v", path, err)
	}
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func cloneComplaints(cs []core.Complaint) []core.Complaint {
	out := slices.Clone(cs)
	for i := range out {
		out[i].Values = slices.Clone(out[i].Values)
	}
	return out
}
