package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, ok, err := s.Get("missing"); ok || err != nil {
		t.Fatalf("Get(missing) = ok=%v err=%v, want absent", ok, err)
	}
	bodies := map[string][]byte{
		"aaaa": []byte(`{"x":1}` + "\n"),
		"bbbb": []byte("raw bytes with\nnewlines\x00and nulls"),
		"cccc": {},
	}
	for k, b := range bodies {
		if err := s.Put(k, b); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	for k, want := range bodies {
		got, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q ok=%v err=%v, want %q", k, got, ok, err, want)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}

	// Re-putting a known key is a no-op (determinism: same key, same body).
	if err := s.Put("aaaa", bodies["aaaa"]); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len after duplicate Put = %d, want 3", s.Len())
	}

	if err := s.Put("bad key", nil); err == nil {
		t.Fatal("Put with a whitespace key should fail")
	}
}

func TestStoreReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := range 10 {
		k := fmt.Sprintf("key%02d", i)
		b := bytes.Repeat([]byte{byte('a' + i)}, i*7)
		want[k] = b
		if err := s.Put(k, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("reloaded Len = %d, want %d", s2.Len(), len(want))
	}
	seen := map[string][]byte{}
	var prev string
	s2.Range(func(k string, b []byte) bool {
		if k < prev {
			t.Errorf("Range out of key order: %q after %q", k, prev)
		}
		prev = k
		seen[k] = b
		return true
	})
	for k, b := range want {
		if !bytes.Equal(seen[k], b) {
			t.Errorf("reloaded %s = %q, want %q", k, seen[k], b)
		}
	}

	// Early stop: a false return ends the walk.
	calls := 0
	s2.Range(func(string, []byte) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("Range after early stop made %d calls, want 1", calls)
	}
}

// TestStoreTornTail pins crash tolerance: a record torn mid-append (the
// only damage a single-write append can suffer) is truncated away on the
// next Open, and every record before it survives.
func TestStoreTornTail(t *testing.T) {
	for _, cut := range []int{1, 5, 20} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("good", []byte("intact body")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("torn", bytes.Repeat([]byte("x"), 100)); err != nil {
				t.Fatal(err)
			}
			s.Close()

			path := filepath.Join(dir, resultsLog)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after torn tail: %v", err)
			}
			defer s2.Close()
			if s2.Len() != 1 {
				t.Fatalf("Len after torn tail = %d, want 1", s2.Len())
			}
			body, ok, err := s2.Get("good")
			if err != nil || !ok || string(body) != "intact body" {
				t.Fatalf("Get(good) = %q ok=%v err=%v", body, ok, err)
			}
			// The torn key is recomputable and re-storable.
			if err := s2.Put("torn", bytes.Repeat([]byte("x"), 100)); err != nil {
				t.Fatal(err)
			}
			if got, ok, _ := s2.Get("torn"); !ok || len(got) != 100 {
				t.Fatalf("re-stored torn key = %d bytes ok=%v, want 100", len(got), ok)
			}
		})
	}
}

func TestCheckpointAppendLoadClear(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const key = "feedbeef"
	if lines, err := s.LoadCheckpoint(key); err != nil || lines != nil {
		t.Fatalf("empty checkpoint = %v, %v", lines, err)
	}
	want := [][]byte{
		[]byte(`{"index":2,"comparison":{"Gain":0.5}}`),
		[]byte(`{"index":0,"comparison":{"Gain":0.1}}`),
	}
	cp, err := s.OpenCheckpoint(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range want {
		if err := cp.Append(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	lines, err := s.LoadCheckpoint(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want) {
		t.Fatalf("loaded %d lines, want %d", len(lines), len(want))
	}
	for i := range want {
		if !bytes.Equal(lines[i], want[i]) {
			t.Errorf("line %d = %s, want %s", i, lines[i], want[i])
		}
	}

	// A torn final line (no newline) is dropped, earlier lines survive.
	path := s.checkpointPath(key)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":5,"compar`)
	f.Close()
	lines, err = s.LoadCheckpoint(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want) {
		t.Fatalf("after torn line: %d lines, want %d", len(lines), len(want))
	}

	if err := s.ClearCheckpoint(key); err != nil {
		t.Fatal(err)
	}
	if lines, _ := s.LoadCheckpoint(key); lines != nil {
		t.Fatalf("checkpoint survived Clear: %v", lines)
	}
	if err := s.ClearCheckpoint(key); err != nil {
		t.Fatalf("double Clear: %v", err)
	}
}
