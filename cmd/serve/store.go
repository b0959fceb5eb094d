package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
	"github.com/sociograph/reconcile/internal/trace"
)

// store is the crash-safe on-disk job store behind -data-dir: per-tenant
// roots, each sharded and delta-checkpointed:
//
//	<data-dir>/
//	  default/                           one root per tenant
//	    shard-00/ shard-01/ … shard-NN/  one directory per shard (-shards)
//	      <id>.g1, <id>.g2               the immutable graphs, written once
//	      <id>.ckpt-00000001.full        a full state checkpoint
//	      <id>.ckpt-00000002.delta       a delta record (changes since #1)
//	      <id>.ckpt-….delta | .full      … the chain continues; a full every
//	                                     -full-every checkpoints
//	      <id>.meta.json                 job-level bookkeeping
//	  acme/
//	    shard-00/ …                      every tenant gets its own shard set
//
// Within a tenant, jobs hash across the shard directories, so each shard is
// an independent fsync domain — mount them on different volumes and N
// concurrent jobs stop contending on one directory's rename+fsync path.
// Tenant roots additionally keep tenants' durable bytes separable for
// quota accounting: the store tracks the bytes under each root (graphs,
// chain records, metas), rebuilt by a walk at boot and maintained
// incrementally afterwards, and the serve layer checks that figure against
// the tenant's checkpoint-byte quota at job admission.
//
// Checkpoints form chains (reconcile.Checkpointer): a full state record,
// then cheap delta records holding only the pairs and phase entries since
// the previous checkpoint — O(churn) instead of O(matching), which is what
// lets per-sweep checkpointing stay on by default at paper scale. Each
// checkpoint is one record, so its atomic rename is the commit point.
// Recovery replays the newest readable full plus its contiguous deltas; a
// missing or corrupt trailing record makes
// recovery fall back to the last consistent prefix and surface the job as
// "interrupted" (its next resume finishes bit-identically from there — the
// chain resume-equivalence suite pins this). Retention keeps the last -keep
// full chains per job and removes older records after each new full and on
// boot.
//
// Every write is atomic — a temp file in the same directory, fsynced,
// renamed, directory fsynced — so a crash mid-checkpoint leaves the
// previous chain intact.
type store struct {
	root string
	cfg  storeConfig

	mu      sync.Mutex
	tenants map[string]*tenantStore
	onWrite func(shard string, bytes int64, seconds float64)
}

// SetWriteObserver installs fn, called after every tracked durable write
// with the shard directory's base name, the bytes the file holds after the
// write, and the wall time the write spent (temp write + fsync + rename +
// dir fsync). The serve layer feeds the checkpoint-byte counters and fsync
// latency histograms from it. Install before serving traffic.
func (st *store) SetWriteObserver(fn func(shard string, bytes int64, seconds float64)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.onWrite = fn
}

// writeObserver snapshots the observer under the store lock.
func (st *store) writeObserver() func(string, int64, float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.onWrite
}

// storeConfig carries the store's tuning flags.
type storeConfig struct {
	shards    int // shard directories for new jobs, per tenant
	fullEvery int // chain period: one full, then fullEvery-1 deltas
	keep      int // full chains retained per job
	// mmap writes new jobs' graphs in the mappable container format and
	// loads graph files through reconcile.OpenGraphMapped, so restored jobs
	// serve their immutable CSR arrays straight from read-only file mappings
	// (falling back to heap copies where mmap is unavailable). Either
	// setting reads files written under the other.
	mmap bool
}

func newStore(dir string, cfg storeConfig) (*store, error) {
	if cfg.shards < 1 {
		return nil, fmt.Errorf("store: -shards must be >= 1 (got %d)", cfg.shards)
	}
	if cfg.fullEvery < 1 {
		return nil, fmt.Errorf("store: -full-every must be >= 1 (got %d)", cfg.fullEvery)
	}
	if cfg.keep < 1 {
		return nil, fmt.Errorf("store: -keep must be >= 1 (got %d)", cfg.keep)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &store{root: dir, cfg: cfg, tenants: make(map[string]*tenantStore)}, nil
}

// tenantNames lists the tenant roots present on disk, sorted. Directories
// whose names are not valid tenant names (a stray lost+found, a backup
// folder) are not tenant roots: they are reported in skipped and — more
// importantly — never handed to tenant(), which would create shard
// directories inside them.
func (st *store) tenantNames() (names []string, skipped []error) {
	entries, err := os.ReadDir(st.root)
	if err != nil {
		return nil, []error{err}
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !tenant.ValidName(e.Name()) {
			skipped = append(skipped, fmt.Errorf("store: ignoring non-tenant directory %s", filepath.Join(st.root, e.Name())))
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, skipped
}

// tenant returns (creating on first use) the named tenant's slice of the
// store. Directory creation is best-effort: a failure surfaces as an IO
// error on the first write rather than here.
func (st *store) tenant(name string) *tenantStore {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ts := st.tenants[name]; ts != nil {
		return ts
	}
	ts := &tenantStore{store: st, name: name, root: filepath.Join(st.root, name)}
	os.MkdirAll(ts.root, 0o755)
	for i := 0; i < st.cfg.shards; i++ {
		sd := filepath.Join(ts.root, fmt.Sprintf("shard-%02d", i))
		os.MkdirAll(sd, 0o755)
		ts.shardDirs = append(ts.shardDirs, sd)
	}
	// A crash between CreateTemp and rename orphans a temp file; sweep them
	// so checkpoint-heavy servers do not leak one per crash. Swept in every
	// shard directory that exists, including shards beyond the current
	// -shards (the store reads jobs wherever a previous configuration put
	// them).
	for _, d := range ts.allShardDirs() {
		if stale, err := filepath.Glob(filepath.Join(d, "*.tmp-*")); err == nil {
			for _, path := range stale {
				os.Remove(path)
			}
		}
	}
	st.tenants[name] = ts
	return ts
}

// tenantStore is one tenant's root: its shard set and its durable-byte
// accounting (the figure the tenant's checkpoint-byte quota is checked
// against at job admission).
type tenantStore struct {
	store *store
	name  string
	root  string
	// shardDirs are the placement targets for new jobs, len == cfg.shards.
	shardDirs []string
	// bytes is the durable footprint under root: graphs, chain records and
	// metas. Rebuilt by a walk at boot
	// (recountBytes), adjusted incrementally by tracked writes/removes.
	bytes atomic.Int64
}

// checkpointBytes returns the tenant's current durable footprint.
func (ts *tenantStore) checkpointBytes() int64 { return ts.bytes.Load() }

// recountBytes rebuilds the byte accounting from a filesystem walk.
func (ts *tenantStore) recountBytes() {
	ts.bytes.Store(ts.walkBytes())
}

// walkBytes sums the sizes of every file under the tenant root.
func (ts *tenantStore) walkBytes() int64 {
	var total int64
	filepath.WalkDir(ts.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			total += fi.Size()
		}
		return nil
	})
	return total
}

// verifyBytes is the accounting invariant check: the incrementally
// maintained counter must equal a fresh walk of the tenant root. Both
// figures are returned so callers can report the drift. Meaningful only
// while no job of the tenant is mid-write — the walk and the counter
// legitimately diverge during a write — so the admin surface and the load
// harness call it over settled jobs.
func (ts *tenantStore) verifyBytes() (tracked, walked int64) {
	return ts.bytes.Load(), ts.walkBytes()
}

// allShardDirs lists every shard directory present under the tenant root —
// not just the first cfg.shards — so jobs placed by a previous -shards
// setting stay readable.
func (ts *tenantStore) allShardDirs() []string {
	dirs, err := filepath.Glob(filepath.Join(ts.root, "shard-*"))
	if err != nil {
		return nil
	}
	sort.Strings(dirs)
	var out []string
	for _, d := range dirs {
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			out = append(out, d)
		}
	}
	return out
}

// jobStore returns the handle for a new job, placed on its hash shard
// within the tenant's shard set.
func (ts *tenantStore) jobStore(id string) *jobStore {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &jobStore{ts: ts, id: id, dir: ts.shardDirs[h.Sum32()%uint32(len(ts.shardDirs))]}
}

// jobStore returns the default tenant's handle for a job — the pre-tenancy
// call surface, kept for the store suites and single-tenant tooling.
func (st *store) jobStore(id string) *jobStore {
	return st.tenant(tenant.Default).jobStore(id)
}

// jobMeta is the JSON sidecar of a persisted job: everything the server
// tracks about a job beyond the session state itself.
type jobMeta struct {
	ID          string    `json:"id"`
	Num         int       `json:"num"`
	Status      jobStatus `json:"status"`
	Error       string    `json:"error,omitempty"`
	Seeds       int       `json:"seeds"`
	UntilStable bool      `json:"untilStable"`
	MaxSweeps   int       `json:"maxSweeps"`
	// Ranges is read, never written: earlier servers cut a large job's
	// checkpoints into this many node-range records (0 or absent: one
	// record). Boot skips a job whose chain has more than one range and
	// leaves its files where they are.
	Ranges int `json:"ranges,omitempty"`
	// Trace is the job's span recorder snapshot as of this meta write. A
	// restart restores it (trace.Restore), so a resumed job's trace timeline
	// continues instead of restarting — the /trace endpoint's continuity
	// promise.
	Trace *trace.Persisted `json:"trace,omitempty"`
}

// jobStore is one job's slice of the store: its shard directory, checkpoint
// chain position, and the delta base. It is driven by one goroutine at a
// time (the run goroutine inside a progress hook, or a handler while no run
// is in flight), like the Reconciler it checkpoints.
type jobStore struct {
	ts  *tenantStore
	dir string
	id  string

	seq       int // newest sequence number on disk or attempted
	sinceFull int // checkpoints written since the last full
	// ckpt is the job's checkpointer, holding the delta base — built lazily,
	// dropped when the job goes idle.
	ckpt *reconcile.Checkpointer

	// tracer, when set by the serve layer, receives a checkpoint-write span
	// per durable record. Set before any run goroutine starts and never
	// replaced. All emission is nil-safe.
	tracer *trace.Recorder
	// boot accumulates spans for work done before the job's recorder exists —
	// graph opens and chain replay at load. The serve layer observes them
	// onto the restored recorder and clears the slice.
	boot []bootSpan
}

// bootSpan is one load-time observation waiting for a recorder.
type bootSpan struct {
	kind   trace.Kind
	detail string
	nanos  int64
}

// bootObserve queues one load-time measurement for the job's future recorder.
func (js *jobStore) bootObserve(kind trace.Kind, detail string, d time.Duration) {
	js.boot = append(js.boot, bootSpan{kind: kind, detail: detail, nanos: d.Nanoseconds()})
}

func (js *jobStore) path(suffix string) string {
	return filepath.Join(js.dir, js.id+suffix)
}

// chainPath names the record of checkpoint seq.
func (js *jobStore) chainPath(seq int, kind string) string {
	return js.path(fmt.Sprintf(".ckpt-%08d.%s", seq, kind))
}

// recordKind is a chain record's kind, as its file name and trace spans
// spell it.
func recordKind(full bool) string {
	if full {
		return "full"
	}
	return "delta"
}

// fileSize returns a file's size, or 0 when it does not exist.
func fileSize(path string) int64 {
	if fi, err := os.Stat(path); err == nil {
		return fi.Size()
	}
	return 0
}

// writeTracked is atomicWrite plus tenant byte accounting: the delta
// between the file's size before and after lands on the tenant's counter
// (metas are overwritten in place, so the delta is what matters). The
// accounting re-stats the path even when atomicWrite reports an error —
// the write can fail after its rename landed (the directory fsync open),
// and skipping the adjustment then left the counter permanently below the
// walk, a drift the boot-walk invariant (verifyBytes) now pins.
func (js *jobStore) writeTracked(path string, write func(*os.File) error) error {
	old := fileSize(path)
	start := time.Now()
	err := atomicWrite(path, write)
	now := fileSize(path)
	js.ts.bytes.Add(now - old)
	if err == nil {
		if fn := js.ts.store.writeObserver(); fn != nil {
			fn(filepath.Base(js.dir), now, time.Since(start).Seconds())
		}
	}
	return err
}

// removeTracked deletes a file and credits its bytes back to the tenant.
func (js *jobStore) removeTracked(path string) {
	sz := fileSize(path)
	if err := os.Remove(path); err == nil {
		js.ts.bytes.Add(-sz)
	}
}

// atomicWrite writes via a temp file in the same directory, fsyncs it,
// renames it into place and fsyncs the directory, so concurrent readers and
// crash recovery only ever see a complete previous or complete new file —
// and the rename itself is durable before the caller builds on it.
func atomicWrite(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Best-effort: directory fsync is optional in POSIX and some
	// filesystems refuse it; the rename itself is still atomic.
	_ = d.Sync()
	return nil
}

// saveGraphs persists the job's two graphs — in the mappable container
// format under -mmap, so a restart serves them from file mappings. Called
// once at submission.
func (js *jobStore) saveGraphs(g1, g2 *reconcile.Graph) error {
	cfg := js.ts.store.cfg
	for _, f := range []struct {
		suffix string
		g      *reconcile.Graph
	}{{".g1", g1}, {".g2", g2}} {
		err := js.writeTracked(js.path(f.suffix), func(w *os.File) error {
			if cfg.mmap {
				return reconcile.WriteGraphMapped(w, f.g)
			}
			return reconcile.WriteGraphBinary(w, f.g)
		})
		if err != nil {
			return fmt.Errorf("store: graphs of %s: %w", js.id, err)
		}
	}
	return nil
}

// checkpoint appends one checkpoint to the job's chain — a delta when a
// durable base exists and the chain period allows it, a full otherwise —
// then persists the meta. The chain record lands first: if the crash window
// falls between it and the meta, recovery sees a fresh state with
// slightly stale bookkeeping, which restore reconciles (counters are
// re-derived from the state). Every attempt takes a fresh sequence number,
// even one that fails, so no sequence ever holds records of two attempts;
// and any failure drops the delta base, so the next checkpoint re-anchors
// the chain with a full instead of building on records that may never have
// become durable.
func (js *jobStore) checkpoint(rec *reconcile.Reconciler, meta jobMeta) error {
	js.seq++
	if js.ckpt == nil {
		js.ckpt = &reconcile.Checkpointer{}
	}
	ck, err := js.ckpt.Prepare(rec, js.sinceFull+1 >= js.ts.store.cfg.fullEvery)
	if errors.Is(err, reconcile.ErrFullRequired) {
		ck, err = js.ckpt.Prepare(rec, true)
	}
	if err == nil {
		err = js.writeCheckpoint(ck)
	}
	if err != nil {
		js.ckpt.Reset()
		return fmt.Errorf("store: checkpoint #%d of %s: %w", js.seq, js.id, err)
	}
	js.ckpt.Commit(ck)
	if ck.Full() {
		js.sinceFull = 0
		js.retireOld(js.listChain())
	} else {
		js.sinceFull++
	}
	return js.writeMeta(meta)
}

// writeCheckpoint writes ck's record under sequence js.seq; its durable
// rename is the checkpoint's commit point.
func (js *jobStore) writeCheckpoint(ck *reconcile.Checkpoint) error {
	kind := recordKind(ck.Full())
	sp := js.tracer.Begin(trace.KindCheckpointWrite, fmt.Sprintf("%s #%d", kind, js.seq))
	defer sp.End()
	return js.writeTracked(js.chainPath(js.seq, kind), func(w *os.File) error { return ck.Encode(w) })
}

func (js *jobStore) writeMeta(meta jobMeta) error {
	err := js.writeTracked(js.path(".meta.json"), func(w *os.File) error {
		return json.NewEncoder(w).Encode(meta)
	})
	if err != nil {
		return fmt.Errorf("store: meta of %s: %w", js.id, err)
	}
	return nil
}

// releaseBase drops the checkpointer and with it the delta base — a full
// deep copy of the session state kept to diff the next checkpoint against.
// Called once a job goes idle: idle jobs checkpoint rarely, holding
// megabytes per terminal job forever is how servers bloat, and the next
// checkpoint simply re-anchors with a full.
func (js *jobStore) releaseBase() {
	js.ckpt = nil
}

// purge deletes every durable file of the job — every file in its
// directory named "<id>." followed by anything: graphs, meta, chain
// records, stale temp files and the range tails of chains earlier servers
// cut into node ranges — crediting the bytes back to the tenant. Used by
// DELETE /v1/.../jobs/{id}, also for a job boot skipped, whose files are
// all that is left of it; the caller guarantees no run goroutine is still
// driving the job. Best effort, like every removal here: a file it cannot
// remove stays on disk and in the byte count.
func (js *jobStore) purge() {
	entries, err := os.ReadDir(js.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), js.id+".") {
			js.removeTracked(filepath.Join(js.dir, e.Name()))
		}
	}
}

// chainRecord locates one record of a job's chain, <id>.ckpt-SEQ.full|delta.
type chainRecord struct {
	seq  int
	full bool
	path string
}

// parseChainName splits a chain record's file name into its job ID and
// record (path unset). What follows the ID never contains ".ckpt-", so the
// last one ends the ID, whatever the ID holds; a name that is no chain
// record reports false.
func parseChainName(name string) (id string, rec chainRecord, ok bool) {
	at := strings.LastIndex(name, ".ckpt-")
	if at < 0 {
		return "", rec, false
	}
	seqStr, kind, ok := strings.Cut(name[at+len(".ckpt-"):], ".")
	if !ok || (kind != "full" && kind != "delta") {
		return "", rec, false
	}
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq <= 0 {
		return "", rec, false
	}
	return name[:at], chainRecord{seq: seq, full: kind == "full"}, true
}

// sortChain orders chain records by sequence number.
func sortChain(records []chainRecord) {
	slices.SortStableFunc(records, func(a, b chainRecord) int { return cmp.Compare(a.seq, b.seq) })
}

// listChain returns the job's chain records sorted by sequence number.
func (js *jobStore) listChain() []chainRecord {
	entries, err := os.ReadDir(js.dir)
	if err != nil {
		return nil
	}
	var out []chainRecord
	for _, e := range entries {
		if id, rec, ok := parseChainName(e.Name()); ok && id == js.id {
			rec.path = filepath.Join(js.dir, e.Name())
			out = append(out, rec)
		}
	}
	sortChain(out)
	return out
}

// shardListing is one read of a shard directory: the IDs of the jobs with a
// meta, in file-name order, and each job's chain records, sorted.
type shardListing struct {
	metas  []string
	chains map[string][]chainRecord
}

// listShard reads a shard directory once and sorts its files by job.
func listShard(dir string) (shardListing, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return shardListing{}, err
	}
	l := shardListing{chains: make(map[string][]chainRecord)}
	for _, e := range entries {
		name := e.Name()
		if id, ok := strings.CutSuffix(name, ".meta.json"); ok {
			l.metas = append(l.metas, id)
		} else if id, rec, ok := parseChainName(name); ok {
			rec.path = filepath.Join(dir, name)
			l.chains[id] = append(l.chains[id], rec)
		}
	}
	for _, records := range l.chains {
		sortChain(records)
	}
	return l, nil
}

// retireOld enforces keep-last-K retention over the job's chain records:
// those older than the K-th newest full checkpoint are deleted. Called
// after each new full and once per job on boot.
func (js *jobStore) retireOld(records []chainRecord) {
	var fullSeqs []int
	for _, rec := range records {
		// A full anchors a chain; readability is recovery's concern,
		// retention only needs to know where chains can start.
		if rec.full {
			fullSeqs = append(fullSeqs, rec.seq)
		}
	}
	keep := js.ts.store.cfg.keep
	if len(fullSeqs) <= keep {
		return
	}
	minKeep := fullSeqs[len(fullSeqs)-keep]
	for _, rec := range records {
		if rec.seq < minKeep {
			js.removeTracked(rec.path)
		}
	}
}

// recoverChain replays the job's chain from its records (listChain's
// order): the newest full that reads, then each contiguous delta after it
// that reads and applies. A gapped or corrupt delta ends the replay at the
// last consistent prefix, and a full that does not read sends recovery back
// to the one before it. dropped counts the records past the replayed
// prefix — zero means the restored state is the newest durable checkpoint.
func (js *jobStore) recoverChain(records []chainRecord) (*reconcile.SessionState, int, error) {
	var err error
	for i := len(records) - 1; i >= 0; i-- {
		if !records[i].full {
			continue
		}
		st, rerr := readRecord(js, records[i], reconcile.ReadSessionState)
		if rerr != nil {
			if err == nil {
				err = fmt.Errorf("chain full #%d: %w", records[i].seq, rerr)
			}
			continue
		}
		last := i
		for _, rec := range records[i+1:] {
			if rec.full || rec.seq != records[last].seq+1 {
				break // a later full starts its own chain; a gap ends this one
			}
			d, rerr := readRecord(js, rec, reconcile.ReadStateDelta)
			if rerr != nil {
				break
			}
			next, rerr := reconcile.ApplyDelta(st, d)
			if rerr != nil {
				break
			}
			st, last = next, last+1
		}
		return st, len(records) - 1 - last, nil
	}
	if err == nil {
		err = errors.New("no readable checkpoint")
	}
	return nil, 0, err
}

// readRecord decodes a chain record with read, queueing a checkpoint-replay
// span for the job's future recorder.
func readRecord[T any](js *jobStore, rec chainRecord, read func(io.Reader) (T, error)) (T, error) {
	start := time.Now()
	f, err := os.Open(rec.path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := read(f)
	if err == nil {
		js.bootObserve(trace.KindCheckpointReplay, fmt.Sprintf("%s #%d", recordKind(rec.full), rec.seq), time.Since(start))
	}
	return v, err
}

// persisted is one job loaded back from disk.
type persisted struct {
	tenant  string
	meta    jobMeta
	g1, g2  *reconcile.Graph
	state   *reconcile.SessionState
	js      *jobStore
	dropped int // trailing checkpoints recovery had to abandon
	// mg1/mg2 are the graphs' mapping handles when the store runs with
	// -mmap: g1/g2 alias file-backed memory whose lifetime the server must
	// tie to the job (Close on delete and at shutdown). nil without -mmap.
	mg1, mg2 *reconcile.MappedGraph
}

// closeMapped releases the job's graph mappings, if any.
func (p *persisted) closeMapped() {
	if p.mg1 != nil {
		p.mg1.Close()
	}
	if p.mg2 != nil {
		p.mg2.Close()
	}
}

// loadAll reads every fully-persisted job, in creation order per tenant,
// from every shard directory of each tenant root. Each shard directory is
// read once (listShard): the listing names the jobs — one per meta file —
// and hands each its chain records, which its replay, sequence scan and
// boot compaction all use, so a boot reads O(files) directory entries
// however many jobs share a shard. Jobs whose files are incomplete or
// unreadable (e.g. a crash between submission and the first checkpoint, or
// a snapshot from a newer format version) are skipped and reported in the
// last return value, as is a shard directory that does not read. maxNum
// maps each tenant to the highest job number present anywhere under its
// root — including skipped jobs, whose number is recovered from the "job-N"
// filename — so new submissions never reuse a skipped job's ID and
// overwrite files a newer binary could still recover. As a side effect each
// tenant's durable-byte accounting is rebuilt from a walk.
func (st *store) loadAll() (out []persisted, maxNum map[string]int, skipped []error) {
	maxNum = make(map[string]int)
	names, skipped := st.tenantNames()
	for _, name := range names {
		ts := st.tenant(name)
		ts.recountBytes()
		seen := map[string]string{}
		for _, dir := range ts.allShardDirs() {
			listing, err := listShard(dir)
			if err != nil {
				skipped = append(skipped, fmt.Errorf("store: tenant %s: %w", name, err))
				continue
			}
			for _, id := range listing.metas {
				if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n > maxNum[name] {
					maxNum[name] = n
				}
				if prev, dup := seen[id]; dup {
					skipped = append(skipped, fmt.Errorf("store: tenant %s job %s: duplicate directories %s and %s", name, id, prev, dir))
					continue
				}
				seen[id] = dir
				p, err := ts.load(dir, id, listing.chains[id])
				if err != nil {
					skipped = append(skipped, &jobSkip{tenant: name, id: id, dir: dir, err: err})
					continue
				}
				if p.meta.Num > maxNum[name] {
					maxNum[name] = p.meta.Num
				}
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].tenant != out[b].tenant {
			return out[a].tenant < out[b].tenant
		}
		return out[a].meta.Num < out[b].meta.Num
	})
	return out, maxNum, skipped
}

// jobSkip is the error boot reports for a job it skipped although the job
// has a meta (a chain it does not read, a corrupt or newer-format record).
// It names where the job's files are, so a DELETE of its ID can remove them
// (jobStore.purge).
type jobSkip struct {
	tenant, id, dir string
	err             error
}

func (e *jobSkip) Error() string {
	return fmt.Sprintf("store: tenant %s job %s: %v", e.tenant, e.id, e.err)
}

func (e *jobSkip) Unwrap() error { return e.err }

// load restores one job from its meta, its graphs and its chain records.
func (ts *tenantStore) load(dir, id string, chain []chainRecord) (persisted, error) {
	js := &jobStore{ts: ts, dir: dir, id: id}
	p := persisted{tenant: ts.name, js: js}
	raw, err := os.ReadFile(js.path(".meta.json"))
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(raw, &p.meta); err != nil {
		return p, fmt.Errorf("meta: %w", err)
	}
	if p.meta.ID != id {
		return p, fmt.Errorf("meta names job %q", p.meta.ID)
	}
	// Only one-record chains are read. A chain cut into node ranges by an
	// earlier server is skipped before any graph opens; its files stay on
	// disk and in the tenant's byte count.
	if p.meta.Ranges < 0 || p.meta.Ranges > 1 {
		return p, fmt.Errorf("meta: chain of %d ranges; only one record per checkpoint is read", p.meta.Ranges)
	}
	for _, f := range []struct {
		suffix string
		dst    **reconcile.Graph
		mg     **reconcile.MappedGraph
	}{{".g1", &p.g1, &p.mg1}, {".g2", &p.g2, &p.mg2}} {
		start := time.Now()
		if ts.store.cfg.mmap {
			mg, err := reconcile.OpenGraphMapped(js.path(f.suffix))
			if err != nil {
				p.closeMapped()
				return p, fmt.Errorf("graph %s: %w", f.suffix, err)
			}
			*f.mg = mg
			*f.dst = mg.Graph()
			mode := "heap"
			if mg.Mapped() {
				mode = "mapped"
			}
			js.bootObserve(trace.KindGraphOpen, f.suffix[1:]+" "+mode, time.Since(start))
			continue
		}
		file, err := os.Open(js.path(f.suffix))
		if err != nil {
			return p, err
		}
		g, err := reconcile.ReadGraphBinary(file)
		file.Close()
		if err != nil {
			return p, fmt.Errorf("graph %s: %w", f.suffix, err)
		}
		*f.dst = g
		js.bootObserve(trace.KindGraphOpen, f.suffix[1:]+" heap", time.Since(start))
	}
	if p.state, p.dropped, err = js.recoverChain(chain); err != nil {
		p.closeMapped()
		return p, err
	}
	// Continue the chain past everything on disk, and re-anchor it with a
	// full on the first post-boot checkpoint: the replayed state is only
	// known to match the newest durable record when nothing was dropped,
	// and a fresh full is cheap insurance either way. The records are in
	// sequence order, so the last holds the newest sequence number.
	if len(chain) > 0 {
		js.seq = chain[len(chain)-1].seq
	}
	// Boot-time compaction only when recovery replayed the chain to its
	// very end: retention counts every full on disk, readable or not, so
	// after a fallback it could delete the older records the restored
	// state actually came from — the next full (which every post-boot
	// checkpoint starts with) compacts instead.
	if p.dropped == 0 {
		js.retireOld(chain)
	}
	return p, nil
}
