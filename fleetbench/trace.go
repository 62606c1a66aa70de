package main

// trace.go records the traced run's spans and counters. Spans are taken
// in the benchmark's own files, around the calls into each layer: the
// store wrappers of compose.go, the SnapshotSource, Cluster.Step and the
// freshness poller. Everything stays in memory until the run ends.

import (
	"sync"
	"time"
)

const (
	opPut = iota
	opGet
	opOther
)

// ledgerSplit is one accepted Put, classified by key, with chunk bytes
// split by decoding.
type ledgerSplit struct {
	class                    string
	bytes                    int64
	payload, rowmeta, header int64
}

// ckptSpan holds the timestamps of one checkpoint, along the slowest
// shard.
type ckptSpan struct {
	id                     int
	start, end             time.Time
	srcFirst, srcLast      time.Time // first Source call, last Source return
	lastChunk              time.Time // end of the last chunk Put
	commitStart, commitEnd time.Time // composite manifest Put
	served                 time.Time // replica's Served() reached id
	rows                   int
}

// phases splits the checkpoint's stall into contiguous phases. A phase
// whose boundary is missing is reported as zero, so coverage falls.
func (c *ckptSpan) phases() (trigger, snapshot, encode, publish, commit, finalize time.Duration) {
	lastChunk := c.lastChunk
	if lastChunk.Before(c.srcLast) {
		lastChunk = c.srcLast // a shard with no modified rows puts no chunk
	}
	span := func(a, b time.Time) time.Duration {
		if a.IsZero() || b.IsZero() || b.Before(a) {
			return 0
		}
		return b.Sub(a)
	}
	return span(c.start, c.srcFirst), span(c.srcFirst, c.srcLast), span(c.srcLast, lastChunk),
		span(lastChunk, c.commitStart), span(c.commitStart, c.commitEnd), span(c.commitEnd, c.end)
}

// callStats accumulates calls of one kind.
type callStats struct {
	n     int64
	bytes int64
	dur   time.Duration
	fail  int64
}

func (s *callStats) add(bytes int, d time.Duration, err error) {
	s.n++
	s.bytes += int64(bytes)
	s.dur += d
	if err != nil {
		s.fail++
	}
}

// tracer collects one traced run. Recording is switched on for the
// timed phase and the restores only.
type tracer struct {
	mu     sync.Mutex
	on     bool
	cur    *ckptSpan
	ckpts  []*ckptSpan
	byID   map[int]*ckptSpan
	steps  []time.Duration
	server [3]callStats
	client [3]callStats
	fails  int64
	ledg   map[string]int64

	restoring bool
	gets      []interval // restore-role Get intervals of the current restore
	restores  []restoreSpan
}

type interval struct{ a, b time.Time }

type restoreSpan struct {
	wall, io time.Duration
}

func newTracer() *tracer {
	return &tracer{byID: make(map[int]*ckptSpan), ledg: make(map[string]int64)}
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) beginCheckpoint(id int, start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.cur = &ckptSpan{id: id, start: start}
	t.ckpts = append(t.ckpts, t.cur)
	t.byID[id] = t.cur
}

func (t *tracer) endCheckpoint(end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur != nil {
		t.cur.end = end
		t.cur = nil
	}
}

func (t *tracer) step(d time.Duration) {
	t.mu.Lock()
	if t.on {
		t.steps = append(t.steps, d)
	}
	t.mu.Unlock()
}

func (t *tracer) sourceStart(at time.Time) {
	t.mu.Lock()
	if c := t.cur; c != nil && c.srcFirst.IsZero() {
		c.srcFirst = at
	}
	t.mu.Unlock()
}

func (t *tracer) sourceEnd(at time.Time) {
	t.mu.Lock()
	if c := t.cur; c != nil && at.After(c.srcLast) {
		c.srcLast = at
	}
	t.mu.Unlock()
}

func (t *tracer) rowsModified(n int) {
	t.mu.Lock()
	if t.cur != nil {
		t.cur.rows = n
	}
	t.mu.Unlock()
}

// served records when the replica first served id or newer.
func (t *tracer) served(id int, at time.Time) {
	t.mu.Lock()
	if c := t.byID[id]; c != nil && c.served.IsZero() {
		c.served = at
	}
	t.mu.Unlock()
}

func (t *tracer) storeFail() {
	t.mu.Lock()
	if t.on {
		t.fails++
	}
	t.mu.Unlock()
}

func (t *tracer) serverCall(op, bytes int, d time.Duration, err error) {
	t.mu.Lock()
	if t.on {
		t.server[op].add(bytes, d, err)
	}
	t.mu.Unlock()
}

func (t *tracer) ledger(s ledgerSplit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.ledg[s.class] += s.bytes
	t.ledg["payload"] += s.payload
	t.ledg["rowmeta"] += s.rowmeta
	t.ledg["header"] += s.header
}

func (t *tracer) clientCall(role string, op int, class string, start, end time.Time, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if role == "restore" && op == opGet && t.restoring {
		t.gets = append(t.gets, interval{start, end})
	}
	if !t.on {
		return
	}
	t.client[op].add(0, end.Sub(start), err)
	if c := t.cur; c != nil && op == opPut {
		switch {
		case role == "agent" && class == "chunk" && end.After(c.lastChunk):
			c.lastChunk = end
		case role == "ctrl" && class == "manifest":
			c.commitStart, c.commitEnd = start, end
		}
	}
}

func (t *tracer) beginRestore() {
	t.mu.Lock()
	t.restoring, t.gets = true, t.gets[:0]
	t.mu.Unlock()
}

func (t *tracer) endRestore(wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.restoring = false
	t.restores = append(t.restores, restoreSpan{wall: wall, io: unionLen(t.gets)})
}
