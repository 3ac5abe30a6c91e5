// Package engine is the generic engine core: one contract —
// validate/run/summarize/cache-key/checkpoint-resume — that every compute
// engine of the service implements exactly once, and a registry the serving
// layers (the cached sync HTTP handler, async jobs with their NDJSON stream
// and checkpointed resume) program against. Adding an engine means
// implementing Engine (or BatchEngine) for a new request type and
// registering it; the HTTP surface, caching, and persistence follow
// without engine-specific code.
//
// The typed contract is erased at registration into Descriptor/Instance/
// Batch, the closure-shaped view the server consumes: a registry of
// heterogeneous engines cannot share one type parameter, and the serving
// code never needs the concrete types — only the engines do.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Meta names an engine: the job-submission type clients write in
// POST /v1/jobs bodies and the synchronous route the engine serves.
type Meta struct {
	Type     string // e.g. "sweep"
	Endpoint string // e.g. "/v1/sweep"
}

// Engine is the generic contract every engine implements once. Req is the
// decoded, validated request — typically the wire struct bound to its ready
// engine values — and Result is the response value whose JSON marshal (plus
// a trailing newline) is the served body. Run must be a pure function of
// the canonicalized request: the determinism contract is what lets one
// content address stand for the result across caches, stores, and
// restarts.
type Engine[Req, Result any] interface {
	Meta() Meta
	// Decode strictly parses and validates raw into a ready request.
	// Errors surface as 400s on every intake surface (sync endpoint, job
	// submission), never inside a running job.
	Decode(raw []byte) (Req, error)
	// Canonical returns the request stripped of its result-neutral field,
	// the worker count. The content address is the SHA-256 of
	// Endpoint + "\n" + the canonical value's deterministic JSON.
	Canonical(req Req) any
	// Units is the progress denominator: the batch size, or 1 for unary
	// engines.
	Units(req Req) int
	// Run computes the full response value — the unary leg.
	Run(ctx context.Context, req Req) (Result, error)
}

// UnitResult is one completed unit delivered by a batch engine's opener.
// Index is the unit's position in the missing slice the opener was given
// (the subset being computed), not the global batch index.
type UnitResult[U any] struct {
	Index int
	Unit  U
	Err   error
}

// BatchEngine extends Engine for batch-shaped engines, which run as jobs
// unit by unit: the job stream's per-unit lines and per-unit checkpointing
// (the resume surface). The stream line and the checkpoint line are the
// same rendering, so one format serves live progress, durable partial
// state, and the resume replay.
type BatchEngine[Req, U, Result any] interface {
	Engine[Req, Result]
	// Prepare materializes the batch inputs — the possibly expensive,
	// possibly fallible step deferred out of Decode so cache hits never pay
	// it — and returns the opener: open(ctx, missing) computes exactly the
	// units whose global indices are listed, delivering completion-ordered
	// results whose Index is the position in missing.
	Prepare(req Req) (func(ctx context.Context, missing []int) <-chan UnitResult[U], error)
	// Line renders the NDJSON/checkpoint line for one completed unit.
	Line(index int, unit *U) any
	// DecodeLine parses a checkpoint line back into its global index and
	// unit, reporting ok=false for lines that are not complete units.
	DecodeLine(raw []byte) (int, U, bool)
	// Body aggregates the input-ordered units into the unary response —
	// bit-identical to Run's for the same request.
	Body(req Req, units []U) (Result, error)
}

// Descriptor is one registered engine with its types erased: what the
// registry lists and the serving layers route by.
type Descriptor struct {
	Type     string
	Endpoint string
	decode   func(raw []byte) (*Instance, error)
}

// Decode strictly parses and validates a raw request body into an Instance.
func (d *Descriptor) Decode(raw []byte) (*Instance, error) { return d.decode(raw) }

// Instance is one decoded, validated request bound to its engine: the
// type-erased view the HTTP handlers and job runners consume.
type Instance struct {
	desc  *Descriptor
	canon any
	units int
	run   func(ctx context.Context) (any, error)
	batch func() *Batch
}

// Type is the engine's job-submission type.
func (in *Instance) Type() string { return in.desc.Type }

// Canonical returns the canonicalized request value the content address is
// derived from.
func (in *Instance) Canonical() any { return in.canon }

// Key is the request's content address: SHA-256 over the endpoint-scoped
// canonical JSON (see Key).
func (in *Instance) Key() (string, error) { return Key(in.desc.Endpoint, in.canon) }

// Units is the progress denominator (batch size; 1 for unary engines).
func (in *Instance) Units() int { return in.units }

// Run computes the full response value — the unary leg every cached path
// shares.
func (in *Instance) Run(ctx context.Context) (any, error) { return in.run(ctx) }

// NewBatch returns a fresh per-unit view of the instance — its own unit
// accumulator, so concurrent runs of one instance cannot interfere — or nil
// for unary engines.
func (in *Instance) NewBatch() *Batch {
	if in.batch == nil {
		return nil
	}
	return in.batch()
}

// Unit is one completed unit as the erased Batch delivers it: the global
// batch index plus the per-unit error. The unit's value is already stored
// in the batch accumulator (the channel send happens after the store, so
// receiving the Unit orders the read correctly); render it with Line.
type Unit struct {
	Index int
	Err   error
}

// Batch is the erased per-unit view of one batch instance: restore fills
// units from checkpoint lines, Open computes the missing ones, Line/Body
// read the accumulator. Prepare must succeed before Open.
type Batch struct {
	// N is the full batch size.
	N int

	prepare func() error
	restore func(raw []byte) (int, bool)
	open    func(ctx context.Context, missing []int) <-chan Unit
	line    func(i int) any
	body    func() (any, error)
}

// Prepare materializes the batch inputs (idempotence is not required; call
// it exactly once per Batch).
func (b *Batch) Prepare() error { return b.prepare() }

// Restore decodes one checkpoint line, stores its unit, and returns the
// covered global index; ok=false for lines that are not complete in-range
// units.
func (b *Batch) Restore(raw []byte) (int, bool) { return b.restore(raw) }

// Open computes the units whose global indices are listed in missing,
// delivering completion-ordered Units. The channel closes when every listed
// unit was delivered or the context was cancelled; after cancellation,
// remaining delivery is best-effort and the consumer may walk away.
func (b *Batch) Open(ctx context.Context, missing []int) <-chan Unit { return b.open(ctx, missing) }

// Line renders the stream/checkpoint line for the stored unit at global
// index i.
func (b *Batch) Line(i int) any { return b.line(i) }

// Body aggregates the stored units into the unary response value.
func (b *Batch) Body() (any, error) { return b.body() }

// registry holds the Descriptors in registration order — the order the
// sync routes are mounted in.
var registry []*Descriptor

func register(d *Descriptor) {
	for _, have := range registry {
		if have.Type == d.Type || have.Endpoint == d.Endpoint {
			panic(fmt.Sprintf("engine: duplicate registration of %s (%s)", d.Type, d.Endpoint))
		}
	}
	registry = append(registry, d)
}

// Engines lists every registered engine in registration order.
func Engines() []*Descriptor {
	return append([]*Descriptor(nil), registry...)
}

// ByType resolves a job-submission type to its engine.
func ByType(typ string) (*Descriptor, bool) {
	for _, d := range registry {
		if d.Type == typ {
			return d, true
		}
	}
	return nil, false
}

// TypeNames lists the registered submission types in registration order.
func TypeNames() []string {
	names := make([]string, len(registry))
	for i, d := range registry {
		names[i] = d.Type
	}
	return names
}

// TypeList renders the accepted submission types for error messages:
// `"a", "b", or "c"`.
func TypeList() string {
	names := TypeNames()
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = fmt.Sprintf("%q", n)
	}
	if len(quoted) == 1 {
		return quoted[0]
	}
	return strings.Join(quoted[:len(quoted)-1], ", ") + ", or " + quoted[len(quoted)-1]
}

// Register erases and registers a unary engine.
func Register[Req, Result any](e Engine[Req, Result]) {
	register(describe(e, nil))
}

// RegisterBatch erases and registers a batch engine.
func RegisterBatch[Req, U, Result any](e BatchEngine[Req, U, Result]) {
	register(describe[Req, Result](e, func(req Req) func() *Batch {
		return func() *Batch { return newBatch(e, req) }
	}))
}

// describe erases one typed engine into its Descriptor.
func describe[Req, Result any](e Engine[Req, Result], batch func(Req) func() *Batch) *Descriptor {
	m := e.Meta()
	d := &Descriptor{Type: m.Type, Endpoint: m.Endpoint}
	d.decode = func(raw []byte) (*Instance, error) {
		req, err := e.Decode(raw)
		if err != nil {
			return nil, err
		}
		in := &Instance{
			desc:  d,
			canon: e.Canonical(req),
			units: e.Units(req),
			run:   func(ctx context.Context) (any, error) { return e.Run(ctx, req) },
		}
		if batch != nil {
			in.batch = batch(req)
		}
		return in, nil
	}
	return d
}

// newBatch erases one batch run: the unit accumulator lives in the closure
// set, written by Restore and by the Open relay (before each channel send,
// so the consumer's receive orders the read) and read by Line/Body.
func newBatch[Req, U, Result any](e BatchEngine[Req, U, Result], req Req) *Batch {
	n := e.Units(req)
	units := make([]U, n)
	var opener func(ctx context.Context, missing []int) <-chan UnitResult[U]
	return &Batch{
		N: n,
		prepare: func() error {
			var err error
			opener, err = e.Prepare(req)
			return err
		},
		restore: func(raw []byte) (int, bool) {
			i, u, ok := e.DecodeLine(raw)
			if !ok || i < 0 || i >= n {
				return -1, false
			}
			units[i] = u
			return i, true
		},
		open: func(ctx context.Context, missing []int) <-chan Unit {
			in := opener(ctx, missing)
			out := make(chan Unit)
			go func() {
				defer close(out)
				for r := range in {
					idx := missing[r.Index]
					if r.Err == nil {
						units[idx] = r.Unit
					}
					// Keep draining after the consumer cancelled and left,
					// so the engine's senders are released and nothing
					// leaks.
					select {
					case out <- Unit{Index: idx, Err: r.Err}:
					case <-ctx.Done():
					}
				}
			}()
			return out
		},
		line: func(i int) any { return e.Line(i, &units[i]) },
		body: func() (any, error) { return e.Body(req, units) },
	}
}

// mapStream adapts an engine's native completion channel into the opener's
// UnitResult form. The relay keeps draining src after ctx dies so the
// engine's best-effort senders are never stranded.
func mapStream[S, U any](ctx context.Context, src <-chan S, conv func(S) UnitResult[U]) <-chan UnitResult[U] {
	out := make(chan UnitResult[U])
	go func() {
		defer close(out)
		for s := range src {
			select {
			case out <- conv(s):
			case <-ctx.Done():
			}
		}
	}()
	return out
}

// DecodeStrict parses one JSON request object: unknown fields and trailing
// data are errors, so typos surface as 400s instead of silently evaluating
// a default. Shared by the sync endpoints and the nested request object of
// a job submission.
func DecodeStrict(rd io.Reader, into any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid request body: trailing data after the JSON object")
	}
	return nil
}

// Key derives the content address of a canonicalized request:
// endpoint-scoped SHA-256 over its deterministic JSON encoding (struct
// fields marshal in declaration order, so equal requests hash equally).
func Key(endpoint string, canonical any) (string, error) {
	buf, err := json.Marshal(canonical)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append([]byte(endpoint+"\n"), buf...))
	return fmt.Sprintf("%x", sum), nil
}
