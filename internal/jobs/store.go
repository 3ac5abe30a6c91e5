// Package jobs is the asynchronous half of the service layer: a persistent
// content-addressed result store and a bounded-worker job queue with a
// queued → running → done/failed/cancelled state machine, per-job progress
// counters, and an as-completed event log.
//
// The package is deliberately engine-agnostic — it moves opaque keys and
// byte slices. internal/server supplies the semantics: keys are the same
// canonical SHA-256 request hashes its result cache computes, bodies are
// fully rendered response bodies, and checkpoint lines are the NDJSON
// stream lines of the sweep engines. The determinism contract (DESIGN.md)
// is what makes persistence sound: a stored body is bit-identical to what
// recomputing the request would produce, so serving it — across restarts —
// is unobservable except in latency and counters.
package jobs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store is the on-disk half of the result cache: an append-only log of
// (key, body) records plus per-key checkpoint files for partially computed
// batches. A Store survives process crashes by construction — every record
// and checkpoint line is appended with a single write, and loading discards
// a torn tail instead of refusing the file. Open builds one; a Store is
// safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	log     *os.File
	offsets map[string]recordAt // key -> latest record position
	size    int64               // current append offset of results.log
	bytes   int64               // sum of stored body lengths (latest records)
}

// recordAt locates one stored body inside results.log.
type recordAt struct {
	off int64
	len int64
}

const (
	resultsLog    = "results.log"
	checkpointDir = "checkpoints"
	// recordMagic guards each record header so a scan can tell a torn tail
	// from a format change.
	recordMagic = "ulba1"
)

// Open opens (creating if needed) the store rooted at dir and scans the
// result log into the in-memory key index. A torn final record — the
// signature of a crash mid-append — is truncated away; everything before it
// is served. Duplicate keys keep the latest record (determinism makes the
// bodies identical anyway, so this is bookkeeping, not semantics).
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: store directory must not be empty")
	}
	if err := os.MkdirAll(filepath.Join(dir, checkpointDir), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating store: %w", err)
	}
	path := filepath.Join(dir, resultsLog)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening %s: %w", resultsLog, err)
	}
	s := &Store{dir: dir, log: f, offsets: make(map[string]recordAt)}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scan walks the log from the start, indexing every complete record and
// truncating the file at the first torn or corrupt one.
func (s *Store) scan() error {
	rd := bufio.NewReaderSize(io.NewSectionReader(s.log, 0, 1<<62), 1<<16)
	var off int64
	for {
		header, err := rd.ReadString('\n')
		if err == io.EOF && header == "" {
			break // clean end
		}
		key, n, ok := parseHeader(header, err == nil)
		if !ok {
			break // torn or corrupt tail: truncate below
		}
		bodyOff := off + int64(len(header))
		if _, err := io.CopyN(io.Discard, rd, n+1); err != nil {
			break // body (or its trailing newline) torn
		}
		if prev, dup := s.offsets[key]; dup {
			s.bytes -= prev.len
		}
		s.offsets[key] = recordAt{off: bodyOff, len: n}
		s.bytes += n
		off = bodyOff + n + 1
	}
	if err := s.log.Truncate(off); err != nil {
		return fmt.Errorf("jobs: truncating torn tail of %s: %w", resultsLog, err)
	}
	s.size = off
	return nil
}

// parseHeader validates one "ulba1 <key> <len>\n" record header. complete
// reports whether the line ended in a newline (an unterminated final line is
// a torn write, never an error).
func parseHeader(line string, complete bool) (key string, bodyLen int64, ok bool) {
	if !complete || !strings.HasSuffix(line, "\n") {
		return "", 0, false
	}
	fields := strings.Fields(strings.TrimSuffix(line, "\n"))
	if len(fields) != 3 || fields[0] != recordMagic || fields[1] == "" {
		return "", 0, false
	}
	n, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || n < 0 {
		return "", 0, false
	}
	return fields[1], n, true
}

// Get reads the stored body for key, if any.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	rec, ok := s.offsets[key]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	body := make([]byte, rec.len)
	if _, err := s.log.ReadAt(body, rec.off); err != nil {
		return nil, false, fmt.Errorf("jobs: reading stored result: %w", err)
	}
	return body, true, nil
}

// Put appends a (key, body) record. The whole record — header, body,
// trailing newline — goes down in one write, so a crash can tear at most
// the final record, which the next Open truncates away. Re-putting a known
// key is a no-op: determinism makes the bodies identical.
func (s *Store) Put(key string, body []byte) error {
	if strings.ContainsAny(key, " \n") {
		return fmt.Errorf("jobs: store key %q contains whitespace", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.offsets[key]; ok {
		return nil
	}
	rec := make([]byte, 0, len(key)+len(body)+32)
	rec = append(rec, recordMagic...)
	rec = append(rec, ' ')
	rec = append(rec, key...)
	rec = fmt.Appendf(rec, " %d\n", len(body))
	headerLen := int64(len(rec))
	rec = append(rec, body...)
	rec = append(rec, '\n')
	// WriteAt against the tracked size keeps the in-memory offset
	// authoritative: a short write (disk full) leaves junk past s.size,
	// which the next successful Put simply overwrites — the file offset
	// can never silently desync from the index.
	if _, err := s.log.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("jobs: appending result: %w", err)
	}
	s.offsets[key] = recordAt{off: s.size + headerLen, len: int64(len(body))}
	s.size += int64(len(rec))
	s.bytes += int64(len(body))
	return nil
}

// Len is the number of distinct stored keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.offsets)
}

// Bytes is the total size of the stored bodies (latest record per key).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Range calls fn for every stored (key, body) pair in key order (sorted so
// iteration — and anything seeded from it, like the server's warm cache —
// is deterministic), stopping early when fn returns false. A read error
// skips the record.
func (s *Store) Range(fn func(key string, body []byte) bool) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.offsets))
	for k := range s.offsets {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if body, ok, err := s.Get(k); ok && err == nil {
			if !fn(k, body) {
				return
			}
		}
	}
}

// checkpointPath is the per-key checkpoint file. Keys are hex SHA-256
// digests, so they are always safe path components.
func (s *Store) checkpointPath(key string) string {
	return filepath.Join(s.dir, checkpointDir, key+".ndjson")
}

// Checkpoint is an open append handle on one key's checkpoint file. A job
// opens it once and appends a line per completed unit; each line goes down
// in a single O_APPEND write, so a crash tears at most the final line,
// which LoadCheckpoint discards.
type Checkpoint struct {
	f *os.File
}

// OpenCheckpoint opens (creating if needed) key's checkpoint file for
// appending.
func (s *Store) OpenCheckpoint(key string) (*Checkpoint, error) {
	f, err := os.OpenFile(s.checkpointPath(key), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening checkpoint: %w", err)
	}
	return &Checkpoint{f: f}, nil
}

// Append durably appends one completed-unit line (NDJSON, no trailing
// newline required).
func (c *Checkpoint) Append(line []byte) error {
	rec := make([]byte, 0, len(line)+1)
	rec = append(rec, bytes.TrimRight(line, "\n")...)
	rec = append(rec, '\n')
	if _, err := c.f.Write(rec); err != nil {
		return fmt.Errorf("jobs: appending checkpoint: %w", err)
	}
	return nil
}

// Close closes the handle (the file itself stays until ClearCheckpoint).
func (c *Checkpoint) Close() error { return c.f.Close() }

// LoadCheckpoint returns the complete lines of key's checkpoint file, in
// append order, dropping an unterminated (torn) final line. A missing file
// is an empty checkpoint, not an error.
func (s *Store) LoadCheckpoint(key string) ([][]byte, error) {
	data, err := os.ReadFile(s.checkpointPath(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: reading checkpoint: %w", err)
	}
	var lines [][]byte
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn final line
		}
		if line := data[:nl]; len(line) > 0 {
			lines = append(lines, append([]byte(nil), line...))
		}
		data = data[nl+1:]
	}
	return lines, nil
}

// ClearCheckpoint removes key's checkpoint file, typically after the final
// body landed in the result log and the partial state has nothing left to
// protect.
func (s *Store) ClearCheckpoint(key string) error {
	err := os.Remove(s.checkpointPath(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Close closes the result log. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
