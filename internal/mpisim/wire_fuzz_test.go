package mpisim

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Fuzz harness for the wire codecs: every decoder either round-trips
// losslessly with its encoder (including UnpackFloat64sInto) or panics on
// the documented corruption classes — never anything in between.

// mustPanic runs f and reports the panic message, failing the test if f
// returns normally.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not mention %q", rec, want)
		}
	}()
	f()
}

func FuzzFloat64sRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(PackFloat64s([]float64{0, 1.5, -2.25, math.Inf(1)}))
	f.Add([]byte{1, 2, 3}) // partial word: must panic
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b)%8 != 0 {
			mustPanic(t, "not a multiple of 8", func() { UnpackFloat64s(b) })
			mustPanic(t, "not a multiple of 8", func() { UnpackFloat64sInto(nil, b) })
			return
		}
		xs := UnpackFloat64s(b)
		if !bytes.Equal(PackFloat64s(xs), b) {
			t.Fatalf("float64 round trip lost bits: % x", b)
		}
		scratch := make([]float64, 0, len(b)/8)
		if !bytes.Equal(PackFloat64s(UnpackFloat64sInto(scratch, b)), b) {
			t.Fatalf("float64 -Into round trip lost bits: % x", b)
		}
	})
}

func FuzzIntsRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(PackInts([]int{0, -1, 1 << 40}))
	f.Add([]byte{9, 9, 9, 9, 9}) // partial word: must panic
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b)%8 != 0 {
			mustPanic(t, "not a multiple of 8", func() { UnpackInts(b) })
			return
		}
		xs := UnpackInts(b)
		if !bytes.Equal(PackInts(xs), b) {
			t.Fatalf("int round trip changed bytes: % x", b)
		}
	})
}
