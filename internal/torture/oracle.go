package torture

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mgsp/internal/core"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// maxSnaps bounds the snapshots one run creates, so pin slots and the
// metadata log never fill up regardless of the sampled trace mix.
const maxSnaps = 8

// opRec is the oracle's record of one write-class op: the regions it
// covers, the stamp it put in each, and its schedule span.
type opRec struct {
	w, i    int
	kind    opKind
	regions []int
	span    *sim.Span
}

// snapRec tracks one snapshot through its lifecycle. Snapshot() returning
// means the snapshot is durably committed; complete means the harness also
// finished capturing the frozen image (the content reference).
type snapRec struct {
	id       core.SnapID
	span     *sim.Span
	img      []byte
	complete bool
	dropping bool
	dropped  bool
}

// state is the shared oracle state. Every mutation is ordered against the
// op it describes: write-class ops register (Begin + region history) before
// the first device access, so an op that crashed mid-flight is always known
// to the oracle.
type state struct {
	mu       sync.Mutex
	sched    *sim.Schedule
	byRegion [][]*opRec
	snaps    []*snapRec
	created  int
	errs     []error
	vios     []liveVio
}

// liveVio is a violation detected while the workload is still running — the
// cache-mode read oracle (torn frame copies, read-your-writes misses).
// Run folds them into Result.Violations with the usual repro line.
type liveVio struct {
	kind   string
	region int
	detail string
}

func newState(cfg Config) *state {
	return &state{
		sched:    sim.NewSchedule(),
		byRegion: make([][]*opRec, cfg.totalRegions()),
	}
}

func (st *state) beginOp(w, i int, o op, mediaOp int64) *opRec {
	e := &opRec{w: w, i: i, kind: o.kind, regions: o.regions}
	st.mu.Lock()
	e.span = st.sched.Begin(w, i, o.kind.String(), mediaOp)
	for _, r := range o.regions {
		st.byRegion[r] = append(st.byRegion[r], e)
	}
	st.mu.Unlock()
	return e
}

func (st *state) noteErr(err error) {
	st.mu.Lock()
	st.errs = append(st.errs, err)
	st.mu.Unlock()
}

func (st *state) takeErrs() []error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.errs
}

func (st *state) noteVio(kind string, region int, detail string) {
	st.mu.Lock()
	st.vios = append(st.vios, liveVio{kind: kind, region: region, detail: detail})
	st.mu.Unlock()
}

func (st *state) takeVios() []liveVio {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.vios
}

// snapBudget admits one more Snapshot call if the run is under maxSnaps.
func (st *state) snapBudget() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.created >= maxSnaps {
		return false
	}
	st.created++
	return true
}

func (st *state) addSnap(id core.SnapID, sp *sim.Span) *snapRec {
	sr := &snapRec{id: id, span: sp}
	st.mu.Lock()
	st.snaps = append(st.snaps, sr)
	st.mu.Unlock()
	return sr
}

func (st *state) completeSnap(sr *snapRec, img []byte) {
	st.mu.Lock()
	sr.img = img
	sr.complete = true
	st.mu.Unlock()
}

// claimDropVictim picks a snapshot whose capture finished (so its read
// handle is closed) and that nobody else is dropping. The claim is
// exclusive; finishDrop(sr, false) reverts it.
func (st *state) claimDropVictim() *snapRec {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sr := range st.snaps {
		if sr.complete && !sr.dropping && !sr.dropped {
			sr.dropping = true
			return sr
		}
	}
	return nil
}

func (st *state) finishDrop(sr *snapRec, done bool) {
	st.mu.Lock()
	if done {
		sr.dropped = true
	} else {
		sr.dropping = false
	}
	st.mu.Unlock()
}

// Violation is one oracle failure. Repro is a shell line that replays the
// run bit-identically in serial mode.
type Violation struct {
	Kind   string
	Region int
	Detail string
	Repro  string
}

func (v Violation) String() string {
	s := fmt.Sprintf("torture violation [%s]", v.Kind)
	if v.Region >= 0 {
		s += fmt.Sprintf(" region %d", v.Region)
	}
	return s + ": " + v.Detail + "\n  repro: " + v.Repro
}

// Result summarizes one torture run.
type Result struct {
	Crashed      bool
	CrashOp      int64 // device-lifetime index of the torn media op (-1 if none)
	CrashWorker  int   // sim.Ctx id that hit the fail point (-1 if none)
	MediaOps     int64
	OpsStarted   int
	OpsCompleted int
	WorkerOps    map[int]int64
	Violations   []Violation
	Schedule     *sim.Schedule
	// Trace is the verified file system's flight-recorder dump (internal/obs
	// trace ring), captured only when the oracle found violations: the last
	// ops — including recovery itself after a crash — that led to the bad
	// state, for forensics alongside the schedule.
	Trace string
}

// captureTrace dumps the verified file system's trace ring into the result,
// but only when the oracle failed — a clean run keeps the result small.
func (res *Result) captureTrace(fs *core.FS) {
	if len(res.Violations) == 0 || fs.TraceRing() == nil {
		return
	}
	var b strings.Builder
	if err := fs.TraceRing().Format(&b); err != nil {
		return
	}
	res.Trace = b.String()
}

func (res *Result) addViolation(cfg Config, kind string, region int, detail string) {
	res.Violations = append(res.Violations, Violation{
		Kind:   kind,
		Region: region,
		Detail: detail,
		Repro:  cfg.ReproLine(),
	})
}

// ReproLine is the deterministic replay command for this configuration: it
// reruns the same traces in serial mode, where the media-op stream — and
// therefore the crash placement and the 8-byte tear — is a pure function of
// these flags.
func (cfg Config) ReproLine() string {
	return fmt.Sprintf(
		"go test ./internal/torture -run 'TestTortureReplay$' -torture.seed=%d -torture.writers=%d -torture.ops=%d -torture.crash=%d -torture.torn=%t -torture.cache=%t",
		cfg.Seed, cfg.Writers, cfg.Ops, cfg.CrashAt, cfg.InjectTorn, cfg.Cache)
}

// stampTable maps every stamp a run can produce back to its op, for torn-
// region diagnostics.
func stampTable(cfg Config, tr [][]op) map[uint64]string {
	m := map[uint64]string{0: "initial zeros"}
	for w, ops := range tr {
		for i, o := range ops {
			for _, r := range o.regions {
				m[stamp(w, i, r)] = fmt.Sprintf("w%d/%s#%d->r%d", w, o.kind, i, r)
			}
		}
	}
	return m
}

// verify runs the full oracle against fs/h, which are either the recovered
// mount after a crash or the live quiescent system after completion. Every
// failure is appended to res.Violations.
func (st *state) verify(cfg Config, res *Result, ctx *sim.Ctx, fs *core.FS, h vfs.File) {
	tr := traces(cfg)
	names := stampTable(cfg, tr)
	img := make([]byte, cfg.fileSize())
	if _, err := h.ReadAt(ctx, img, 0); err != nil {
		res.addViolation(cfg, "read", -1, fmt.Sprintf("reading recovered image: %v", err))
		return
	}

	// Per-region op-atomicity: the region must hold the stamp of exactly one
	// admissible op (or the initial zeros when no op committed to it).
	matched := make([]*opRec, cfg.totalRegions())
	for r := 0; r < cfg.totalRegions(); r++ {
		recs := st.byRegion[r]
		// A completed op is superseded — impossible to observe — once some
		// other completed op on the region started strictly after it
		// returned. In-flight ops (crash-interrupted) supersede nothing and
		// are always admissible: their commit may or may not have landed.
		var cands [][]byte
		var candOps []*opRec
		anyCompleted := false
		for _, e := range recs {
			if !e.span.InFlight() {
				anyCompleted = true
			}
		}
		if !anyCompleted {
			cands = append(cands, make([]byte, cfg.RegionSize))
			candOps = append(candOps, nil)
		}
		for _, e := range recs {
			superseded := false
			if !e.span.InFlight() {
				for _, o := range recs {
					if o != e && !o.span.InFlight() && e.span.Before(o.span) {
						superseded = true
						break
					}
				}
			}
			if superseded {
				continue
			}
			cands = append(cands, stampImage(e.w, e.i, r, cfg.RegionSize))
			candOps = append(candOps, e)
		}
		got := img[int64(r)*cfg.RegionSize : int64(r+1)*cfg.RegionSize]
		k := core.MatchCandidate(got, cands)
		if k == -1 {
			res.addViolation(cfg, "torn-region", r, describeRegion(got, cands, names))
			continue
		}
		matched[r] = candOps[k]
	}

	// WriteMulti atomicity across regions: once one region of a multi-op is
	// visible, its whole metadata-log chain committed, so no other region of
	// that op may still show a state from definitely before it.
	st.checkMulti(cfg, res, matched)

	st.checkSnapshots(cfg, res, ctx, fs)

	// Every listed snapshot has been dropped above, so the allocator must
	// account for exactly the live tree now.
	if rep := fs.AuditBlocks(); !rep.Clean() {
		res.addViolation(cfg, "audit", -1,
			fmt.Sprintf("block audit after recovery: %d orphans, %d unallocated",
				len(rep.Orphans), len(rep.Unallocated)))
	}
}

func (st *state) checkMulti(cfg Config, res *Result, matched []*opRec) {
	for r, m := range matched {
		if m == nil || m.kind != opMulti {
			continue
		}
		for _, q := range m.regions {
			if q == r {
				continue
			}
			other := matched[q]
			switch {
			case other == m:
			case other == nil:
				// Initial zeros predate every op, including m.
				res.addViolation(cfg, "multi-torn", q, fmt.Sprintf(
					"writev w%d#%d visible in region %d but region %d still shows initial zeros",
					m.w, m.i, r, q))
			case other.span.Before(m.span):
				res.addViolation(cfg, "multi-torn", q, fmt.Sprintf(
					"writev w%d#%d visible in region %d but region %d shows w%d/%s#%d, which completed before it started",
					m.w, m.i, r, q, other.w, other.kind, other.i))
			}
		}
	}
}

// checkSnapshots validates the snapshot table and every frozen image, then
// drops all listed snapshots so the block audit runs on the bare tree.
func (st *state) checkSnapshots(cfg Config, res *Result, ctx *sim.Ctx, fs *core.FS) {
	infos, err := fs.Snapshots(ctx, fileName)
	if err != nil {
		res.addViolation(cfg, "snap", -1, fmt.Sprintf("listing snapshots: %v", err))
		return
	}
	listed := make(map[core.SnapID]core.SnapInfo, len(infos))
	for _, info := range infos {
		listed[info.ID] = info
	}
	known := make(map[core.SnapID]bool, len(st.snaps))
	for _, sr := range st.snaps {
		known[sr.id] = true
		info, live := listed[sr.id]
		switch {
		case !sr.dropping && !live:
			// Snapshot() returned, so the create entry was durably committed.
			res.addViolation(cfg, "snap-lost", -1,
				fmt.Sprintf("committed snapshot %d not listed after recovery", sr.id))
			continue
		case sr.dropped && live:
			res.addViolation(cfg, "snap-resurrected", -1,
				fmt.Sprintf("dropped snapshot %d listed after recovery", sr.id))
		}
		if !live || !sr.complete {
			// In-flight drops may resolve either way; crash-interrupted
			// captures leave no content reference. Existence rules above
			// still applied.
			continue
		}
		if info.Size != int64(len(sr.img)) {
			res.addViolation(cfg, "snap-torn", -1, fmt.Sprintf(
				"snapshot %d frozen size %d, want %d", sr.id, info.Size, len(sr.img)))
			continue
		}
		sh, err := fs.OpenSnapshot(ctx, fileName, sr.id)
		if err != nil {
			res.addViolation(cfg, "snap", -1, fmt.Sprintf("open snapshot %d: %v", sr.id, err))
			continue
		}
		frozen := make([]byte, info.Size)
		_, err = sh.ReadAt(ctx, frozen, 0)
		sh.Close(ctx)
		if err != nil {
			res.addViolation(cfg, "snap", -1, fmt.Sprintf("read snapshot %d: %v", sr.id, err))
			continue
		}
		if i := core.FirstDivergence(frozen, sr.img); i != -1 {
			res.addViolation(cfg, "snap-torn", -1, fmt.Sprintf(
				"snapshot %d diverges from its frozen image at byte %d: %#x want %#x",
				sr.id, i, frozen[i], sr.img[i]))
		}
	}
	for id := range listed {
		if !known[id] {
			// Created in flight at the crash: the commit raced the tear and
			// won. Legal — but it must at least open and read cleanly.
			sh, err := fs.OpenSnapshot(ctx, fileName, id)
			if err != nil {
				res.addViolation(cfg, "snap", -1,
					fmt.Sprintf("open in-flight-created snapshot %d: %v", id, err))
				continue
			}
			buf := make([]byte, sh.Size())
			_, err = sh.ReadAt(ctx, buf, 0)
			sh.Close(ctx)
			if err != nil {
				res.addViolation(cfg, "snap", -1,
					fmt.Sprintf("read in-flight-created snapshot %d: %v", id, err))
			}
		}
	}
	// Clear the table for the audit; quiescent now, so Busy is impossible.
	for id := range listed {
		if err := fs.DropSnapshot(ctx, fileName, id); err != nil {
			res.addViolation(cfg, "snap", -1, fmt.Sprintf("drop snapshot %d: %v", id, err))
		}
	}
}

// describeRegion renders a torn region word-by-word: which stamps appear,
// where the content first diverges from each candidate.
func describeRegion(got []byte, cands [][]byte, names map[uint64]string) string {
	seen := map[uint64]int{}
	var order []uint64
	for off := 0; off+8 <= len(got); off += 8 {
		v := getLE64(got[off:])
		if seen[v] == 0 {
			order = append(order, v)
		}
		seen[v]++
	}
	sort.Slice(order, func(i, j int) bool { return seen[order[i]] > seen[order[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "region matches none of %d candidate op images; words found:", len(cands))
	for _, v := range order {
		name := names[v]
		if name == "" {
			name = "UNKNOWN"
		}
		fmt.Fprintf(&b, " %s×%d", name, seen[v])
	}
	for k, c := range cands {
		fmt.Fprintf(&b, "; cand[%d] diverges at byte %d", k, core.FirstDivergence(got, c))
	}
	return b.String()
}
