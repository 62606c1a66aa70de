// Command fleetbench drives the composed Check-N-Run fleet — train →
// checkpoint → serve → restore over loopback TCP — for a fixed number
// of checkpoint intervals, checks every output, and prints one JSON
// result line. See README.md for the workloads and the metrics.
//
//	go run . --workload incr-quant --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one fleet shape. Everything in it is a plain value;
// compose.go maps it onto the product's types.
type workload struct {
	Name string

	TableRows []int
	Dim       int
	ZipfS     float64
	Batch     int // samples per training step
	Steps     int // training steps per checkpoint interval
	// IntervalsPer10s sets the fixed interval count: a run of --seconds
	// S makes IntervalsPer10s*S/10 checkpoints, whatever the wall time.
	IntervalsPer10s int

	Policy    string
	Quant     string
	Bits      int
	Compact   bool
	KeepLast  int
	ChunkRows int
	Disk      bool // DiskStore with fsync=always instead of MemStore

	// Setups is how many set-ups an untraced run times (setup_s is
	// their median); Restores how many restore rounds it runs
	// (restore_p50_ms is their median). Cheap workloads take more.
	Setups, Restores int
}

const (
	lookupRate  = 50 // lookups per second, open loop, on every workload
	lookupFanIn = 64
	// warmIntervals are untimed checkpoints between set-up and the timed
	// phase.
	warmIntervals = 2
	pollEvery     = 200 * time.Microsecond
)

var workloads = []workload{
	{
		// The paper's production shape: intermittent policy, 4-bit
		// adaptive, CKP2. 4 tables × 128Ki rows × dim 16 × 4 B = 32 MiB
		// of fp32 weights; ~5% of rows change per interval. At 128 MiB
		// (beyond L3) the one full baseline per timed window made the
		// lookup tail bimodal across runs; at 32 MiB the intermittent
		// cycle is 11 intervals, so every window holds two.
		Name:      "incr-quant",
		TableRows: []int{1 << 17, 1 << 17, 1 << 17, 1 << 17}, Dim: 16, ZipfS: 1.2,
		Batch: 64, Steps: 500, IntervalsPer10s: 15,
		Policy: "intermittent", Quant: "adaptive4", Bits: 4, Compact: true, KeepLast: 2, ChunkRows: 512,
		Setups: 3, Restores: 9,
	},
	{
		// The online-training read plane: small tables, short intervals,
		// many commits; fixed per-checkpoint RPC, manifest, GC and replica
		// apply costs dominate.
		Name:      "online-serve",
		TableRows: []int{4096, 4096, 8192, 16384}, Dim: 16, ZipfS: 1.2,
		Batch: 32, Steps: 20, IntervalsPer10s: 600,
		Policy: "intermittent", Quant: "asym8", Bits: 8, KeepLast: 4, ChunkRows: 512,
		Setups: 9, Restores: 31,
	},
	{
		// The paper's baseline on the disk path: full fp32 every interval
		// into a DiskStore with fsync=always; quantization and incremental
		// tracking are bypassed. 4 × 8Ki rows × dim 16 × 4 B = 2 MiB. At
		// 16 MiB the replica's full rebuild every interval kept both cores
		// saturated, and the lookup tail swung 0.29 (IQR/median) across
		// ten seeds.
		Name:      "full-durable",
		TableRows: []int{1 << 13, 1 << 13, 1 << 13, 1 << 13}, Dim: 16, ZipfS: 1.2,
		Batch: 64, Steps: 20, IntervalsPer10s: 250,
		Policy: "full", Quant: "fp32", Bits: 32, KeepLast: 2, ChunkRows: 4096,
		Disk:   true,
		Setups: 9, Restores: 31,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// exact reports whether restores must match the trainer's cut bit for
// bit (fp32); quantized restores are compared with the replica instead.
func (w workload) exact() bool { return w.Quant == "fp32" }

func (w workload) intervals(seconds int) int {
	return max(2, w.IntervalsPer10s*seconds/10)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: incr-quant, online-serve or full-durable")
	seed := flag.Int64("seed", 1, "workload seed: model init, sample stream and lookup IDs")
	seconds := flag.Int("seconds", 10, "run length; sets the fixed checkpoint interval count")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/fleetbench-data", "directory for DiskStore segment logs")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: need --workload (incr-quant|online-serve|full-durable), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run makes one benchmark invocation. Untraced, it reports the
// end-to-end metrics. Traced, it runs the workload untraced and then
// traced with the same seed, and reports the per-layer metrics plus the
// tracing overhead.
func run(w workload, seed int64, seconds int, traced bool, workdir string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	nSetups := w.Setups
	if traced {
		nSetups = 1
	}
	base, err := runPass(w, seed, seconds, nil, nSetups, dir)
	if err != nil {
		return nil, err
	}
	printEnv(w, seed, seconds, base)
	if !traced {
		return base.result(base.e2e), nil
	}
	tr := newTracer()
	tp, err := runPass(w, seed, seconds, tr, 1, dir)
	if err != nil {
		return nil, err
	}
	layers, err := tp.perLayer(tr)
	if err != nil {
		tp.fail("trace", err)
	}
	for k, m := range tp.e2e {
		layers["overhead."+k] = metric{Value: m.Value - base.e2e[k].Value, Unit: m.Unit}
	}
	tp.attempted += base.attempted
	tp.failed += base.failed
	tp.errs = append(base.errs, tp.errs...)
	return tp.result(layers), nil
}

// pass is one composed fleet driven through set-up, the timed
// intervals and the restores.
type pass struct {
	w         workload
	intervals int
	fp32      int64

	attempted, failed int
	errs              []string

	setup    []float64 // s
	stalls   []float64 // ms
	fresh    []float64 // ms
	lookups  []float64 // µs, from the scheduled send
	late     []float64 // ms, generator lateness
	restores []float64 // ms
	loopWall time.Duration
	samples  int

	written               int64
	stored                []float64 // store capacity after each timed commit
	compactions, logBytes int64
	chainLen              int
	e2e                   map[string]metric
}

func (p *pass) fail(what string, err error) {
	p.failed++
	p.errs = append(p.errs, fmt.Sprintf("%s: %v", what, err))
}

func (p *pass) result(m map[string]metric) *result {
	for _, e := range p.errs {
		fmt.Fprintf(os.Stderr, "fleetbench: check failed: %s\n", e)
	}
	return &result{Correct: len(p.errs) == 0 && p.failed == 0, Attempted: max(1, p.attempted), Failed: p.failed, Metrics: m}
}

// runPass composes, drives and checks one fleet. It returns an error
// only when the fleet cannot be composed; failed operations and checks
// are counted in the pass.
func runPass(w workload, seed int64, seconds int, tr *tracer, nSetups int, dir string) (*pass, error) {
	p := &pass{w: w, intervals: w.intervals(seconds)}
	ctx := context.Background()

	// Set-up: compose the fleet, initialise the model, write the first
	// full baseline and bootstrap the replica. Earlier set-ups are torn
	// down; the last one is driven.
	var f *fleet
	for i := 0; i < nSetups; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("store-%d", i))
		start := time.Now()
		nf, err := composeFleet(w, seed, sdir, tr)
		if err != nil {
			return nil, fmt.Errorf("compose %s: %w", w.Name, err)
		}
		p.attempted++
		if _, err := nf.checkpoint(ctx, 0); err != nil {
			nf.close()
			return nil, fmt.Errorf("baseline checkpoint: %w", err)
		}
		if err := waitServed(nf, 0, time.Minute); err != nil {
			nf.close()
			return nil, err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
		if i < nSetups-1 {
			nf.close()
			os.RemoveAll(sdir)
			runtime.GC()
			continue
		}
		f = nf
	}
	defer func() {
		f.close()
		os.RemoveAll(f.dir)
	}()
	p.fp32 = f.fp32Bytes()

	// Warm-up: pregenerate samples and lookups, open the lookup
	// connection, build the restore target, and run warmIntervals
	// untimed checkpoints so the heap reaches its steady size before the
	// clock starts.
	total := warmIntervals + p.intervals + w.Restores
	if err := f.pregenerate(seed, total*w.Steps); err != nil {
		return nil, err
	}
	reqs, err := lookupRequests(w, seed^0x5eed, 512, lookupFanIn)
	if err != nil {
		return nil, err
	}
	for _, r := range reqs[:8] {
		if _, _, err := f.lookup(ctx, r); err != nil {
			return nil, fmt.Errorf("warm-up lookup: %w", err)
		}
	}
	if err := f.newRestoreTarget(seed); err != nil {
		return nil, err
	}
	for i := 0; i < warmIntervals; i++ {
		id, err := f.checkpoint(ctx, p.train(f, nil))
		if err != nil {
			return nil, fmt.Errorf("warm-up checkpoint: %w", err)
		}
		if err := waitServed(f, id, time.Minute); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	p.timed(ctx, f, tr, reqs)
	p.restoreRounds(ctx, f, tr, seed)
	p.e2e = p.endToEnd()
	return p, nil
}

// train runs one interval's training steps and returns the step count.
func (p *pass) train(f *fleet, tr *tracer) uint64 {
	var step uint64
	for k := 0; k < p.w.Steps; k++ {
		if tr == nil {
			step = f.step()
			continue
		}
		t0 := time.Now()
		step = f.step()
		tr.step(time.Since(t0))
	}
	return step
}

// timed drives the fixed interval count with the lookup stream and the
// freshness poller running beside the training loop.
func (p *pass) timed(ctx context.Context, f *fleet, tr *tracer, reqs []lookupReq) {
	w := p.w
	written0, _ := f.usage()
	comp0, _ := f.diskStats()
	if tr != nil {
		tr.setOn(true)
	}
	lctx, stopLookups := context.WithCancel(ctx)
	lg := startLookups(lctx, f, reqs)
	fp := startPoller(f, tr, p.intervals)

	start := time.Now()
	last := f.nextID() - 1
	for i := 0; i < p.intervals; i++ {
		step := p.train(f, tr)
		id := f.nextID()
		trig := time.Now()
		fp.add(id, trig)
		if tr != nil {
			tr.beginCheckpoint(id, trig)
		}
		p.attempted++
		got, err := f.checkpoint(ctx, step)
		end := time.Now()
		if tr != nil {
			tr.endCheckpoint(end)
		}
		if err != nil {
			p.fail(fmt.Sprintf("checkpoint %d", id), err)
			break
		}
		if got != last+1 {
			p.fail("checkpoint IDs", fmt.Errorf("got %d after %d", got, last))
		}
		last = got
		p.stalls = append(p.stalls, ms(end.Sub(trig)))
		_, capacity := f.usage()
		p.stored = append(p.stored, float64(capacity))
	}
	p.loopWall = time.Since(start)
	p.samples = len(p.stalls) * w.Steps * w.Batch
	written1, _ := f.usage()
	comp1, logBytes := f.diskStats()
	p.written = written1 - written0
	p.compactions, p.logBytes = comp1-comp0, logBytes
	if tr != nil {
		tr.setOn(false)
	}

	stopLookups()
	lk := lg.wait()
	p.lookups, p.late = lk.lat, lk.late
	p.attempted += lk.attempted
	p.failed += lk.failed
	if lk.err != nil {
		p.errs = append(p.errs, "lookups: "+lk.err.Error())
	}
	// Every lookup must name a committed checkpoint, never going back.
	prev := -1
	for _, id := range lk.ids {
		if id < prev || id < 0 || id > last {
			p.fail("lookup IDs", fmt.Errorf("served checkpoint %d after %d, committed 0..%d", id, prev, last))
			break
		}
		prev = id
	}

	fresh, err := fp.wait()
	if err != nil {
		p.fail("freshness", err)
	}
	p.fresh = fresh
}

// restoreRounds runs the reverse path: each round trains one more
// interval, commits it, waits for the replica, then times RestoreLatest
// and checks the restored state — bit-identical to the trainer's cut
// for fp32, to the replica's lookups for quantized workloads. Rounds
// land at successive points of the policy's full/incremental cycle, so
// their median does not hinge on where the timed intervals stopped.
func (p *pass) restoreRounds(ctx context.Context, f *fleet, tr *tracer, seed int64) {
	checkReqs, err := lookupRequests(p.w, seed^0xc0ffee, 16*len(p.w.TableRows), lookupFanIn)
	if err != nil {
		p.fail("check lookups", err)
		return
	}
	last := f.nextID() - 1
	for i := 0; i < p.w.Restores; i++ {
		p.attempted++
		id, err := f.checkpoint(ctx, p.train(f, nil))
		if err != nil {
			p.fail(fmt.Sprintf("checkpoint %d", last+1), err)
			return
		}
		if id != last+1 {
			p.fail("checkpoint IDs", fmt.Errorf("got %d after %d", id, last))
		}
		last = id
		if err := waitServed(f, id, time.Minute); err != nil {
			p.fail("replica", err)
			return
		}
		runtime.GC()
		if tr != nil {
			tr.beginRestore()
		}
		p.attempted++
		start := time.Now()
		r, err := f.restore(ctx)
		wall := time.Since(start)
		if tr != nil {
			tr.endRestore(wall)
		}
		if err != nil {
			p.fail("restore", err)
			continue
		}
		p.restores = append(p.restores, ms(wall))
		if r.id != id {
			p.fail("restore", fmt.Errorf("restored checkpoint %d, newest is %d", r.id, id))
			continue
		}
		if p.w.exact() {
			err = f.checkAgainstSnapshot(r)
		} else {
			err = f.checkAgainstReplica(ctx, id, checkReqs)
		}
		if err != nil {
			p.fail("restore check", err)
		}
	}
	if err := f.verifyChain(ctx, last); err != nil {
		p.fail("chain", err)
	}
	if n, err := f.chainLen(ctx, last); err != nil {
		p.fail("chain length", err)
	} else {
		p.chainLen = n
	}
}

// endToEnd computes the end-to-end metrics of the pass.
func (p *pass) endToEnd() map[string]metric {
	ckpts := float64(max(1, len(p.stalls)))
	return map[string]metric{
		"setup_s":        {median(p.setup), "s"},
		"train_sps":      {float64(p.samples) / p.loopWall.Seconds(), "samples/s"},
		"stall_p50_ms":   {median(p.stalls), "ms"},
		"stall_tail_ms":  {tail(p.stalls), "ms"},
		"write_ratio":    {float64(p.written) / ckpts / float64(p.fp32), "ratio"},
		"stored_ratio":   {median(p.stored) / float64(p.fp32), "ratio"},
		"restore_p50_ms": {median(p.restores), "ms"},
		"fresh_p50_ms":   {median(p.fresh), "ms"},
		"fresh_tail_ms":  {tail(p.fresh), "ms"},
		"lookup_p50_us":  {median(p.lookups), "us"},
	}
}

// perLayer computes the traced pass's per-layer metrics. The error
// reports a phase coverage or ledger check that failed.
func (p *pass) perLayer(t *tracer) (map[string]metric, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(max(1, len(t.ckpts)))
	var trig, snap, enc, pub, com, fin, apply, rows []float64
	var phaseSum, stallSum time.Duration
	for _, c := range t.ckpts {
		a, b, e, pu, co, fi := c.phases()
		trig, snap, enc = append(trig, ms(a)), append(snap, ms(b)), append(enc, ms(e))
		pub, com, fin = append(pub, ms(pu)), append(com, ms(co)), append(fin, ms(fi))
		phaseSum += a + b + e + pu + co + fi
		stallSum += c.end.Sub(c.start)
		rows = append(rows, float64(c.rows))
		if !c.served.IsZero() && !c.commitEnd.IsZero() {
			apply = append(apply, ms(c.served.Sub(c.commitEnd)))
		}
	}
	var steps []float64
	var stepSum time.Duration
	for _, d := range t.steps {
		steps = append(steps, ms(d))
		stepSum += d
	}
	var rio, rdec []float64
	for _, r := range t.restores {
		rio = append(rio, ms(r.io))
		rdec = append(rdec, ms(r.wall-r.io))
	}
	var cliN int64
	var cliDur, srvDur time.Duration
	fails := t.fails
	for op := range t.client {
		cliN += t.client[op].n
		cliDur += t.client[op].dur
		srvDur += t.server[op].dur
		fails += t.client[op].fail + t.server[op].fail
	}
	perCall := func(s callStats) float64 { return us(s.dur) / float64(max(1, s.n)) }
	stallCov := float64(phaseSum) / float64(max(1, stallSum))
	loopCov := float64(stepSum+stallSum) / float64(max(1, p.loopWall))
	m := map[string]metric{
		"trainer.step_ms":        {median(steps), "ms"},
		"trainer.busy_share":     {float64(stepSum) / float64(max(1, p.loopWall)), "share"},
		"ckpt.snapshot_ms":       {median(snap), "ms"},
		"ckpt.rows_modified":     {median(rows), "count"},
		"ckpt.encode_upload_ms":  {median(enc), "ms"},
		"ctrl.trigger_ms":        {median(trig), "ms"},
		"ctrl.publish_ms":        {median(pub), "ms"},
		"ctrl.commit_ms":         {median(com), "ms"},
		"ctrl.finalize_ms":       {median(fin), "ms"},
		"objstore.puts":          {float64(t.server[opPut].n) / n, "count"},
		"objstore.put_bytes":     {float64(t.server[opPut].bytes) / n, "bytes"},
		"objstore.gets":          {float64(t.server[opGet].n) / n, "count"},
		"objstore.get_bytes":     {float64(t.server[opGet].bytes) / n, "bytes"},
		"objstore.put_server_us": {perCall(t.server[opPut]), "us"},
		"objstore.get_server_us": {perCall(t.server[opGet]), "us"},
		"objstore.rpc_us":        {us(cliDur-srvDur) / float64(max(1, cliN)), "us"},
		"objstore.fail":          {float64(fails), "count"},
		"objstore.compactions":   {float64(p.compactions), "count"},
		"objstore.log_bytes":     {float64(p.logBytes), "bytes"},
		"serve.apply_ms":         {median(apply), "ms"},
		"serve.lookup_tail_us":   {tail(p.lookups), "us"},
		"serve.lookup_late_ms":   {tail(p.late), "ms"},
		"recovery.io_ms":         {median(rio), "ms"},
		"recovery.decode_ms":     {median(rdec), "ms"},
		"recovery.chain_len":     {float64(p.chainLen), "count"},
		"wire.payload_bytes":     {float64(t.ledg["payload"]) / n, "bytes"},
		"wire.rowmeta_bytes":     {float64(t.ledg["rowmeta"]) / n, "bytes"},
		"wire.header_bytes":      {float64(t.ledg["header"]) / n, "bytes"},
		"wire.manifest_bytes":    {float64(t.ledg["manifest"]) / n, "bytes"},
		"wire.dense_bytes":       {float64(t.ledg["dense"]) / n, "bytes"},
		"ctrl.lease_bytes":       {float64(t.ledg["lease"]) / n, "bytes"},
		"trace.stall_coverage":   {stallCov, "share"},
		"trace.loop_coverage":    {loopCov, "share"},
	}
	var errs []string
	if stallCov < 0.9 {
		errs = append(errs, fmt.Sprintf("phases cover %.3f of the stall, want >= 0.9", stallCov))
	}
	if loopCov < 0.9 {
		errs = append(errs, fmt.Sprintf("step and stall cover %.3f of the training loop, want >= 0.9", loopCov))
	}
	// The ledger must account for every byte the store accepted.
	var ledger int64
	for _, class := range []string{"chunk", "manifest", "dense", "lease", "other"} {
		ledger += t.ledg[class]
	}
	if ledger != p.written {
		errs = append(errs, fmt.Sprintf("ledger classes sum to %d bytes, store accepted %d", ledger, p.written))
	}
	if t.ledg["other"] != 0 {
		errs = append(errs, fmt.Sprintf("%d bytes written under unclassified keys", t.ledg["other"]))
	}
	if t.ledg["payload"]+t.ledg["rowmeta"]+t.ledg["header"] != t.ledg["chunk"] {
		errs = append(errs, "chunk split does not sum to chunk bytes")
	}
	if len(errs) > 0 {
		return m, errors.New(strings.Join(errs, "; "))
	}
	return m, nil
}

// printEnv records the environment, the seed, the workload's shape and
// the sample counts behind each metric, on the line before the result.
func printEnv(w workload, seed int64, seconds int, p *pass) {
	backend, fsync := "mem", "none"
	if w.Disk {
		backend, fsync = "disk", "always"
	}
	rows := 0
	for _, r := range w.TableRows {
		rows += r
	}
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"seed":       seed,
		"seconds":    seconds,
		"workload": map[string]any{
			"name": w.Name, "tables": len(w.TableRows), "rows": rows, "dim": w.Dim,
			"bits": w.Bits, "quant": w.Quant, "policy": w.Policy, "compact": w.Compact,
			"store": backend, "fsync": fsync, "lookup_rate": lookupRate, "fan_in": lookupFanIn,
			"intervals": p.intervals, "steps_per_interval": w.Steps, "batch": w.Batch,
		},
		"samples": map[string]int{
			"setups": len(p.setup), "stalls": len(p.stalls), "fresh": len(p.fresh),
			"lookups": len(p.lookups), "restores": len(p.restores),
		},
	}
	line, _ := json.Marshal(env) // only plain values: cannot fail
	fmt.Printf("# env %s\n", line)
}

// cpuModel returns the CPU model name, or "unknown".
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// waitServed polls until the replica serves id or newer.
func waitServed(f *fleet, id int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.served() < id {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not serve checkpoint %d within %v (at %d)", id, timeout, f.served())
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// --- lookup stream ------------------------------------------------------

type lookupStats struct {
	lat, late         []float64
	ids               []int
	attempted, failed int
	err               error
}

type lookupGen struct {
	done chan lookupStats
}

// startLookups issues lookups open-loop at lookupRate on one
// connection until ctx ends. Each is timed from its scheduled send, so
// a stall also counts against the requests queued behind it.
func startLookups(ctx context.Context, f *fleet, reqs []lookupReq) *lookupGen {
	g := &lookupGen{done: make(chan lookupStats, 1)}
	go func() {
		var st lookupStats
		period := time.Second / lookupRate
		start := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * period)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					g.done <- st
					return
				case <-timer.C:
				}
			} else if ctx.Err() != nil {
				g.done <- st
				return
			}
			sent := time.Now()
			rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			id, _, err := f.lookup(rctx, reqs[i%len(reqs)])
			cancel()
			end := time.Now()
			st.attempted++
			if err != nil {
				st.failed++
				if st.err == nil {
					st.err = err
				}
				continue
			}
			st.lat = append(st.lat, us(end.Sub(due)))
			st.late = append(st.late, ms(sent.Sub(due)))
			st.ids = append(st.ids, id)
		}
	}()
	return g
}

func (g *lookupGen) wait() lookupStats { return <-g.done }

// --- freshness poller ---------------------------------------------------

type pending struct {
	id    int
	at    time.Time
	fresh time.Duration
	err   error
}

// poller times each checkpoint from its trigger until the replica's
// Served() reports it, polling every pollEvery while one is pending and
// sleeping on the queue otherwise.
type poller struct {
	in   chan pending
	done chan []pending
}

func startPoller(f *fleet, tr *tracer, n int) *poller {
	// Sized to the number of sends, so add never blocks the trainer.
	fp := &poller{in: make(chan pending, n), done: make(chan []pending, 1)}
	go func() {
		var out []pending
		for p := range fp.in {
			deadline := p.at.Add(time.Minute)
			for f.served() < p.id && time.Now().Before(deadline) {
				time.Sleep(pollEvery)
			}
			now := time.Now()
			if f.served() < p.id {
				p.err = fmt.Errorf("replica did not serve checkpoint %d within a minute", p.id)
			}
			if tr != nil {
				tr.served(p.id, now)
			}
			p.fresh = now.Sub(p.at)
			out = append(out, p)
		}
		fp.done <- out
	}()
	return fp
}

func (fp *poller) add(id int, at time.Time) { fp.in <- pending{id: id, at: at} }

// wait closes the queue and returns each checkpoint's freshness in ms.
// It returns within a minute of the last trigger: every pending ID
// gives up a minute after its own.
func (fp *poller) wait() ([]float64, error) {
	close(fp.in)
	var fresh []float64
	for _, p := range <-fp.done {
		if p.err != nil {
			return fresh, p.err
		}
		fresh = append(fresh, ms(p.fresh))
	}
	return fresh, nil
}
