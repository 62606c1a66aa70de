package main

// compose.go is the benchmark's only coupling to the product's APIs:
// every import of a repro/internal package lives here, so a later API
// refactor touches this one file. It composes the production topology
// inside one process, over loopback TCP:
//
//	objstore.Server (MemStore or DiskStore backend)
//	2 × ctrl.Agent behind ctrl.NewAgentServer, fed by one trainer.Cluster
//	leased ctrl.Controller announcing through a ctrl.Announcer
//	serve.Replica + serve.Client lookup stream
//	ckpt.Restorer for the reverse path
//
// With a tracer, the store each role is handed is wrapped so the
// benchmark can time the calls into the store layer from outside.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/ctrl"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/trainer"
	"repro/internal/wire"
)

const (
	jobID  = "bench"
	shards = 2
)

// fleet is one composed topology plus the state the benchmark drives.
type fleet struct {
	w   workload
	tr  *tracer // nil when untraced
	dir string  // DiskStore directory; empty for MemStore

	backend   objstore.Store
	accounted objstore.Accountant
	disk      *objstore.DiskStore
	server    *objstore.Server

	cluster *trainer.Cluster
	assign  map[int]int
	batches []*data.Batch

	snapMu sync.Mutex
	snap   *ckpt.Snapshot // the single Cluster.Snapshot of the current step

	agents      []*ctrl.Agent
	agentSrvs   []*ctrl.AgentServer
	agentStores []objstore.Store

	announcer  *ctrl.Announcer
	ctrlStore  objstore.Store
	controller *ctrl.Controller

	repStore objstore.Store
	replica  *serve.Replica
	client   *serve.Client

	restStore objstore.Store
	restorer  *ckpt.Restorer
	restModel *model.DLRM
}

// quantParams maps a workload's quantizer name to product parameters.
func quantParams(name string) (quant.Params, error) {
	switch name {
	case "fp32":
		return quant.Params{Method: quant.MethodNone}, nil
	case "asym8":
		return quant.Params{Method: quant.MethodAsymmetric, Bits: 8}, nil
	case "adaptive4":
		return quant.Params{Method: quant.MethodAdaptive, Bits: 4, NumBins: 45, Ratio: 1.0}, nil
	}
	return quant.Params{}, fmt.Errorf("unknown quantizer %q", name)
}

func policyKind(name string) (ckpt.PolicyKind, error) {
	for _, p := range []ckpt.PolicyKind{ckpt.PolicyFull, ckpt.PolicyOneShot, ckpt.PolicyConsecutive, ckpt.PolicyIntermittent} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

func modelConfig(w workload, seed int64) (model.Config, data.Spec) {
	mcfg := model.DefaultConfig()
	mcfg.Seed = seed
	mcfg.EmbedDim = w.Dim
	mcfg.Tables = nil
	for _, rows := range w.TableRows {
		mcfg.Tables = append(mcfg.Tables, embedding.TableSpec{Rows: rows, Dim: w.Dim})
	}
	spec := data.DefaultSpec()
	spec.Seed = seed
	spec.TableRows = append([]int(nil), w.TableRows...)
	spec.ZipfS = w.ZipfS
	return mcfg, spec
}

func newModel(w workload, seed int64) (*model.DLRM, error) {
	mcfg, _ := modelConfig(w, seed)
	return model.New(mcfg, shards)
}

// composeFleet starts every role and initialises the model. dir is the
// DiskStore directory (unused for MemStore workloads).
func composeFleet(w workload, seed int64, dir string, tr *tracer) (f *fleet, err error) {
	f = &fleet{w: w, tr: tr}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	pol, err := policyKind(w.Policy)
	if err != nil {
		return nil, err
	}
	qp, err := quantParams(w.Quant)
	if err != nil {
		return nil, err
	}

	if w.Disk {
		f.dir = dir
		f.disk, err = objstore.NewDiskStore(objstore.DiskConfig{Dir: dir, Fsync: objstore.FsyncAlways})
		if err != nil {
			return nil, err
		}
		f.backend, f.accounted = f.disk, f.disk
	} else {
		mem := objstore.NewMemStore(objstore.MemConfig{})
		f.backend, f.accounted = mem, mem
	}
	backend := f.backend
	if tr != nil {
		backend = &serverStore{inner: f.backend, tr: tr}
	}
	if f.server, err = objstore.NewServer("127.0.0.1:0", backend, objstore.ServerConfig{}); err != nil {
		return nil, err
	}
	dial := func(role string) (objstore.Store, error) {
		cl, err := objstore.Dial(f.server.Addr(), objstore.ClientConfig{PoolSize: 8})
		if err != nil {
			return nil, err
		}
		if tr == nil {
			return cl, nil
		}
		return &clientStore{Store: cl, role: role, tr: tr}, nil
	}

	m, err := newModel(w, seed)
	if err != nil {
		return nil, err
	}
	if f.cluster, err = trainer.New(m, trainer.Config{Nodes: shards}); err != nil {
		return nil, err
	}
	f.assign = f.cluster.TableAssignment()

	for s := 0; s < shards; s++ {
		st, err := dial("agent")
		if err != nil {
			return nil, err
		}
		f.agentStores = append(f.agentStores, st)
		ag, err := ctrl.NewAgent(ctrl.AgentConfig{
			JobID:  jobID,
			Shard:  s,
			Shards: shards,
			Engine: ckpt.Config{
				Store:           st,
				Policy:          pol,
				Quant:           qp,
				ChunkRows:       w.ChunkRows,
				KeepLast:        w.KeepLast,
				CompactMetadata: w.Compact,
			},
			Source: f.source(s),
		})
		if err != nil {
			return nil, err
		}
		f.agents = append(f.agents, ag)
		srv, err := ctrl.NewAgentServer("127.0.0.1:0", ag)
		if err != nil {
			return nil, err
		}
		f.agentSrvs = append(f.agentSrvs, srv)
	}

	if f.announcer, err = ctrl.NewAnnouncer("127.0.0.1:0", jobID, nil); err != nil {
		return nil, err
	}
	if f.ctrlStore, err = dial("ctrl"); err != nil {
		return nil, err
	}
	reg, err := ctrl.NewRegister(ctrl.RegisterConfig{JobID: jobID, Store: f.ctrlStore, Holder: "fleetbench", TTL: time.Minute})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lease, err := reg.Acquire(ctx, 0)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, len(f.agentSrvs))
	for i, s := range f.agentSrvs {
		addrs[i] = s.Addr()
	}
	if f.controller, err = ctrl.NewController(ctrl.ControllerConfig{
		JobID:     jobID,
		Store:     f.ctrlStore,
		Agents:    addrs,
		Lease:     lease,
		KeepLast:  w.KeepLast,
		Announcer: f.announcer,
	}); err != nil {
		return nil, err
	}

	if f.repStore, err = dial("replica"); err != nil {
		return nil, err
	}
	if f.replica, err = serve.Start(serve.Config{JobID: jobID, Store: f.repStore, AnnounceAddr: f.announcer.Addr()}); err != nil {
		return nil, err
	}
	f.client = serve.NewClient(f.replica.Addr(), serve.ClientConfig{})

	if f.restStore, err = dial("restore"); err != nil {
		return nil, err
	}
	if f.restorer, err = ckpt.NewRestorer(jobID, f.restStore); err != nil {
		return nil, err
	}
	return f, nil
}

// source is shard s's SnapshotSource. Both agents cut the same step;
// the first call takes the one Cluster.Snapshot and every shard gets
// its ckpt.SubSnapshot of it.
func (f *fleet) source(s int) ctrl.SnapshotSource {
	return func(ctx context.Context, step uint64) (*ckpt.Snapshot, error) {
		if f.tr != nil {
			f.tr.sourceStart(time.Now())
		}
		f.snapMu.Lock()
		if f.snap == nil || f.snap.Step != step {
			if got := f.cluster.Stats().Batches; got != step {
				f.snapMu.Unlock()
				return nil, fmt.Errorf("trainer at step %d, cut requested at %d", got, step)
			}
			snap, err := f.cluster.Snapshot(data.ReaderState{NextSample: step * uint64(f.w.Batch), BatchSize: f.w.Batch})
			if err != nil {
				f.snapMu.Unlock()
				return nil, err
			}
			f.snap = snap
			if f.tr != nil {
				f.tr.rowsModified(snap.ModifiedRows())
			}
		}
		sub := ckpt.SubSnapshot(f.snap, f.assign, s)
		f.snapMu.Unlock()
		if f.tr != nil {
			f.tr.sourceEnd(time.Now())
		}
		return sub, nil
	}
}

// fp32Bytes is one full fp32 checkpoint of the embedding tables.
func (f *fleet) fp32Bytes() int64 {
	var n int64
	for _, rows := range f.w.TableRows {
		n += int64(rows) * int64(f.w.Dim) * 4
	}
	return n
}

// pregenerate builds the sample batches of n training steps, seeded
// like the model, so generation stays out of the timed loop. Samples
// are a pure function of (seed, position), so workers fill disjoint
// batches in parallel.
func (f *fleet) pregenerate(seed int64, n int) error {
	_, spec := modelConfig(f.w, seed)
	gen, err := data.NewGenerator(spec)
	if err != nil {
		return err
	}
	f.batches = make([]*data.Batch, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				pos := uint64(i) * uint64(f.w.Batch)
				b := &data.Batch{Seq: pos, Samples: make([]data.Sample, f.w.Batch)}
				for j := range b.Samples {
					b.Samples[j] = gen.At(pos + uint64(j))
				}
				f.batches[i] = b
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// step trains one pregenerated batch and returns the new step count.
func (f *fleet) step() uint64 {
	i := f.cluster.Stats().Batches
	f.cluster.Step(f.batches[i])
	return i + 1
}

// checkpoint drives one composite checkpoint through the leased
// controller and returns its ID.
func (f *fleet) checkpoint(ctx context.Context, step uint64) (int, error) {
	man, err := f.controller.Checkpoint(ctx, step)
	if !f.w.exact() {
		// Only the fp32 workload compares the restore with the trainer's
		// cut; the others need not hold a second copy of the model.
		f.snapMu.Lock()
		f.snap = nil
		f.snapMu.Unlock()
	}
	if err != nil {
		return -1, err
	}
	return man.ID, nil
}

func (f *fleet) nextID() int { return f.controller.NextID() }

// served returns the checkpoint ID the replica serves, -1 before its
// first load.
func (f *fleet) served() int {
	id, _ := f.replica.Served()
	return id
}

// lookupReq is one lookup: fan-in indices from one table.
type lookupReq struct {
	table   uint32
	indices []uint32
}

// lookupRequests draws n requests of fanIn IDs each, table by table in
// turn, from the training distribution (a sample stream of its own
// seed).
func lookupRequests(w workload, seed int64, n, fanIn int) ([]lookupReq, error) {
	_, spec := modelConfig(w, seed)
	gen, err := data.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	reqs := make([]lookupReq, n)
	for i := range reqs {
		t := i % len(w.TableRows)
		idx := make([]uint32, fanIn)
		for j := range idx {
			idx[j] = uint32(gen.Next().Sparse[t])
		}
		reqs[i] = lookupReq{table: uint32(t), indices: idx}
	}
	return reqs, nil
}

// lookup issues one request and returns the checkpoint it was served
// from and the vectors.
func (f *fleet) lookup(ctx context.Context, r lookupReq) (int, []float32, error) {
	resp, err := f.client.Lookup(ctx, r.table, r.indices)
	if err != nil {
		return -1, nil, err
	}
	if int(resp.Dim) != f.w.Dim || len(resp.Vectors) != len(r.indices)*f.w.Dim {
		return resp.CkptID, nil, fmt.Errorf("lookup: %d floats of dim %d for %d rows", len(resp.Vectors), resp.Dim, len(r.indices))
	}
	return resp.CkptID, resp.Vectors, nil
}

// usage reads the store backend's accounting counters.
func (f *fleet) usage() (written, capacity int64) {
	u := f.accounted.Usage()
	return u.BytesWritten, u.CapacityBytes
}

// diskStats returns the DiskStore's compaction count and log size
// (zero for MemStore workloads).
func (f *fleet) diskStats() (compactions, logBytes int64) {
	if f.disk == nil {
		return 0, 0
	}
	st := f.disk.Stats()
	return st.Compactions, st.LogBytes
}

// restoreResult is what one RestoreLatest applied.
type restoreResult struct {
	id       int
	step     uint64
	next     uint64
	chainLen int
}

// newRestoreTarget builds the model restores land in. Its seed differs
// from the trainer's, so a row a restore failed to write cannot match
// by accident.
func (f *fleet) newRestoreTarget(seed int64) error {
	m, err := newModel(f.w, seed+1)
	f.restModel = m
	return err
}

// restore runs RestoreLatest into the restore target model.
func (f *fleet) restore(ctx context.Context) (restoreResult, error) {
	res, err := f.restorer.RestoreLatest(ctx, f.restModel)
	if err != nil {
		return restoreResult{}, err
	}
	return restoreResult{id: res.Manifests[0].ID, step: res.Step, next: res.Reader.NextSample}, nil
}

// chainLen returns the longest per-shard restore chain of checkpoint id.
func (f *fleet) chainLen(ctx context.Context, id int) (int, error) {
	longest := 0
	for s := 0; s < shards; s++ {
		sub, err := ckpt.NewRestorer(wire.ShardJobID(jobID, s), f.restStore)
		if err != nil {
			return 0, err
		}
		chain, err := sub.Chain(ctx, id)
		if err != nil {
			return 0, err
		}
		longest = max(longest, len(chain))
	}
	return longest, nil
}

// verifyChain checks that the store's composites are gapless and end
// at last, and that every one of them is complete.
func (f *fleet) verifyChain(ctx context.Context, last int) error {
	mans, err := f.restorer.ListManifests(ctx)
	if err != nil {
		return err
	}
	if len(mans) == 0 {
		return errors.New("no composite manifests in the store")
	}
	for i, m := range mans {
		if want := mans[0].ID + i; m.ID != want {
			return fmt.Errorf("composite IDs have a gap: %d where %d was due", m.ID, want)
		}
		ok, err := f.restorer.Complete(ctx, m)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("composite %d is not complete", m.ID)
		}
	}
	if got := mans[len(mans)-1].ID; got != last {
		return fmt.Errorf("newest composite is %d, want %d", got, last)
	}
	return nil
}

// checkAgainstSnapshot compares the restored model bit for bit with the
// trainer's snapshot of the last checkpoint: tables, optimizer state,
// dense state and reader position.
func (f *fleet) checkAgainstSnapshot(r restoreResult) error {
	f.snapMu.Lock()
	snap := f.snap
	f.snapMu.Unlock()
	if snap == nil {
		return errors.New("no trainer snapshot to compare with")
	}
	if r.step != snap.Step || r.next != snap.Reader.NextSample {
		return fmt.Errorf("restored step %d / reader %d, trainer cut step %d / reader %d",
			r.step, r.next, snap.Step, snap.Reader.NextSample)
	}
	for _, want := range snap.Tables {
		got := f.restModel.Sparse.Table(want.ID)
		if got == nil {
			return fmt.Errorf("restored model lacks table %d", want.ID)
		}
		if i := firstDiff(got.Weights.Data, want.Weights.Data); i >= 0 {
			return fmt.Errorf("table %d weight %d differs from the trainer", want.ID, i)
		}
		if i := firstDiff(got.Accum, want.Accum); i >= 0 {
			return fmt.Errorf("table %d accumulator %d differs from the trainer", want.ID, i)
		}
	}
	dense, err := f.restModel.DenseState()
	if err != nil {
		return err
	}
	if string(dense) != string(snap.Dense) {
		return errors.New("restored dense state differs from the trainer")
	}
	return nil
}

// checkAgainstReplica compares restored rows bit for bit with what the
// replica serves for the same checkpoint ID.
func (f *fleet) checkAgainstReplica(ctx context.Context, id int, reqs []lookupReq) error {
	for _, r := range reqs {
		got, vecs, err := f.lookup(ctx, r)
		if err != nil {
			return err
		}
		if got != id {
			return fmt.Errorf("replica served checkpoint %d, restore is %d", got, id)
		}
		tab := f.restModel.Sparse.Table(int(r.table))
		for j, idx := range r.indices {
			if k := firstDiff(tab.Lookup(int(idx)), vecs[j*f.w.Dim:(j+1)*f.w.Dim]); k >= 0 {
				return fmt.Errorf("table %d row %d element %d: restore and replica differ", r.table, idx, k)
			}
		}
	}
	return nil
}

func firstDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// close stops every role and releases the store; safe on a partly
// composed fleet.
func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	if f.replica != nil {
		f.replica.Close()
	}
	if f.controller != nil {
		f.controller.Close()
	}
	if f.announcer != nil {
		f.announcer.Close()
	}
	for _, s := range f.agentSrvs {
		s.Close()
	}
	for _, a := range f.agents {
		a.Close()
	}
	for _, st := range append(f.agentStores, f.ctrlStore, f.repStore, f.restStore) {
		if st != nil {
			st.Close()
		}
	}
	if f.server != nil {
		f.server.Close()
	}
	if f.backend != nil {
		f.backend.Close()
	}
}

// --- traced store wrappers -----------------------------------------

// keyClass names the ledger class of a store key.
func keyClass(key string) string {
	switch {
	case key == ctrl.LeaseKey(jobID):
		return "lease"
	case strings.HasSuffix(key, "/manifest"):
		return "manifest"
	case strings.HasSuffix(key, "/dense"):
		return "dense"
	case strings.Contains(key, "/chunk/"):
		return "chunk"
	}
	return "other"
}

// splitChunk splits an encoded chunk into packed code bytes, per-row
// metadata and the chunk header (with CRC), by decoding it with the
// wire package's public decoder.
func splitChunk(blob []byte) (payload, rowmeta, header int64, err error) {
	c, err := wire.DecodeChunkAlias(blob)
	if err != nil {
		return 0, 0, 0, err
	}
	for i := range c.Rows {
		payload += int64(len(c.Rows[i].Q.Codes))
	}
	header = 12 + 4 // v1: magic, table, row count | CRC
	if binary.LittleEndian.Uint32(blob) == 0x434B5032 {
		header = 20 + 4 // CKP2 hoists bits, flags and dim into the header
	}
	rowmeta = int64(len(blob)) - payload - header
	return payload, rowmeta, header, nil
}

// serverStore wraps the backend behind objstore.Server: it times each
// backend call and feeds the byte ledger. It forwards OwnedPutter and
// Accountant, so the server hands it Put buffers without a copy exactly
// as it does the bare backend.
type serverStore struct {
	inner objstore.Store
	tr    *tracer
}

func (s *serverStore) put(ctx context.Context, key string, value []byte, owned bool) error {
	split := ledgerSplit{class: keyClass(key), bytes: int64(len(value))}
	if split.class == "chunk" {
		var err error
		if split.payload, split.rowmeta, split.header, err = splitChunk(value); err != nil {
			// Still store it: the ledger's split check reports the gap.
			s.tr.storeFail()
		}
	}
	start := time.Now()
	var err error
	if owned {
		err = objstore.PutOwned(ctx, s.inner, key, value)
	} else {
		err = s.inner.Put(ctx, key, value)
	}
	s.tr.serverCall(opPut, len(value), time.Since(start), err)
	if err == nil {
		s.tr.ledger(split)
	}
	return err
}

func (s *serverStore) Put(ctx context.Context, key string, value []byte) error {
	return s.put(ctx, key, value, false)
}

func (s *serverStore) PutOwned(ctx context.Context, key string, value []byte) error {
	return s.put(ctx, key, value, true)
}

// failure returns err unless it is a miss: a missing key is an
// answer, not a failed store call.
func failure(err error) error {
	if errors.Is(err, objstore.ErrNotFound) {
		return nil
	}
	return err
}

func (s *serverStore) Get(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	v, err := s.inner.Get(ctx, key)
	s.tr.serverCall(opGet, len(v), time.Since(start), failure(err))
	return v, err
}

func (s *serverStore) Delete(ctx context.Context, key string) error {
	start := time.Now()
	err := s.inner.Delete(ctx, key)
	s.tr.serverCall(opOther, 0, time.Since(start), failure(err))
	return err
}

func (s *serverStore) List(ctx context.Context, prefix string) ([]string, error) {
	start := time.Now()
	keys, err := s.inner.List(ctx, prefix)
	s.tr.serverCall(opOther, 0, time.Since(start), err)
	return keys, err
}

func (s *serverStore) Stat(ctx context.Context, key string) (int64, error) {
	start := time.Now()
	n, err := s.inner.Stat(ctx, key)
	s.tr.serverCall(opOther, 0, time.Since(start), failure(err))
	return n, err
}

func (s *serverStore) Close() error { return s.inner.Close() }

func (s *serverStore) Usage() objstore.Usage { return s.inner.(objstore.Accountant).Usage() }

func (s *serverStore) ResetBandwidth() { s.inner.(objstore.Accountant).ResetBandwidth() }

// clientStore wraps one role's TCP store client and reports every call
// to the tracer with its role, key class and interval.
type clientStore struct {
	objstore.Store
	role string
	tr   *tracer
}

func (c *clientStore) Put(ctx context.Context, key string, value []byte) error {
	start := time.Now()
	err := c.Store.Put(ctx, key, value)
	c.tr.clientCall(c.role, opPut, keyClass(key), start, time.Now(), err)
	return err
}

func (c *clientStore) Get(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	v, err := c.Store.Get(ctx, key)
	c.tr.clientCall(c.role, opGet, keyClass(key), start, time.Now(), failure(err))
	return v, err
}

func (c *clientStore) Delete(ctx context.Context, key string) error {
	start := time.Now()
	err := c.Store.Delete(ctx, key)
	c.tr.clientCall(c.role, opOther, keyClass(key), start, time.Now(), failure(err))
	return err
}

func (c *clientStore) List(ctx context.Context, prefix string) ([]string, error) {
	start := time.Now()
	keys, err := c.Store.List(ctx, prefix)
	c.tr.clientCall(c.role, opOther, "", start, time.Now(), err)
	return keys, err
}

func (c *clientStore) Stat(ctx context.Context, key string) (int64, error) {
	start := time.Now()
	n, err := c.Store.Stat(ctx, key)
	c.tr.clientCall(c.role, opOther, keyClass(key), start, time.Now(), failure(err))
	return n, err
}
