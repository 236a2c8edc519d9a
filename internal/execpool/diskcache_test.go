package execpool

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sync"
	"testing"
)

// payload is a representative cell value: nested, pointer-bearing, map-keyed
// by an unexported struct — the shapes the experiment cells actually use.
type payload struct {
	Name   string
	Series map[string][]float64
	Sub    *payload
}

func samplePayload() payload {
	return payload{
		Name:   "cell",
		Series: map[string][]float64{"acc": {0.1, 0.5, 0.9}},
		Sub:    &payload{Name: "inner"},
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	p := New(Options{Workers: 1, CacheDir: t.TempDir(), Version: "v1"})
	key := "a"
	want := samplePayload()
	Do(p, key, func() (payload, error) { return want, nil })

	// A fresh pool over the same directory decodes, not recomputes.
	q := New(Options{Workers: 1, CacheDir: p.cache.dir, Version: "v1"})
	got, _ := Do(q, key, func() (payload, error) {
		t.Fatal("warm pool must not recompute")
		return payload{}, nil
	})
	if got.Name != want.Name || got.Sub.Name != "inner" || len(got.Series["acc"]) != 3 {
		t.Fatalf("decoded %+v", got)
	}
}

// TestCacheCorruptionRecomputes is the robustness table: every way an entry
// can be unusable — truncation, bit flips, wrong magic, undecodable payload,
// a different library version — must fall back to recomputation, never crash
// or serve wrong data.
func TestCacheCorruptionRecomputes(t *testing.T) {
	key := "a"
	cases := []struct {
		name string
		// mangle corrupts the stored entry at path (written under version v1).
		mangle      func(t *testing.T, path string)
		readVersion string
		wantErrors  int64 // disk_errors expected on the warm pool
	}{
		{
			name:        "truncated blob",
			mangle:      func(t *testing.T, path string) { truncateTo(t, path, 20) },
			readVersion: "v1",
			wantErrors:  1,
		},
		{
			name:        "empty file",
			mangle:      func(t *testing.T, path string) { truncateTo(t, path, 0) },
			readVersion: "v1",
			wantErrors:  1,
		},
		{
			name: "checksum mismatch",
			mangle: func(t *testing.T, path string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)-1] ^= 0xff // flip a payload bit
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			readVersion: "v1",
			wantErrors:  1,
		},
		{
			name: "wrong magic",
			mangle: func(t *testing.T, path string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				copy(raw, "NOTCELL0")
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			readVersion: "v1",
			wantErrors:  1,
		},
		{
			name: "undecodable payload",
			mangle: func(t *testing.T, path string) {
				// Valid magic + checksum over garbage: only gob can reject it.
				garbage := []byte("this is not a gob stream")
				sum := sha256.Sum256(garbage)
				raw := append(append(append([]byte(nil), cellMagic[:]...), sum[:]...), garbage...)
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			readVersion: "v1",
			wantErrors:  1,
		},
		{
			name:        "wrong-version fingerprint",
			mangle:      func(t *testing.T, path string) {}, // entry intact, but...
			readVersion: "v2",                               // ...the reader's version never addresses it
			wantErrors:  0,                                  // a clean miss, not an error
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := New(Options{Workers: 1, CacheDir: dir, Version: "v1"})
			Do(w, key, func() (payload, error) { return samplePayload(), nil })
			tc.mangle(t, w.cache.path(w.fingerprint(key)))

			r := New(Options{Workers: 1, CacheDir: dir, Version: tc.readVersion})
			recomputed := false
			got, _ := Do(r, key, func() (payload, error) { recomputed = true; return samplePayload(), nil })
			if !recomputed {
				t.Fatal("corrupt/stale entry must recompute")
			}
			if got.Name != "cell" {
				t.Fatalf("recomputed value wrong: %+v", got)
			}
			st := r.Stats()
			if st.DiskErrors != tc.wantErrors {
				t.Fatalf("disk errors = %d, want %d", st.DiskErrors, tc.wantErrors)
			}
			// The recompute repairs the entry: a third pool reads it warm.
			h := New(Options{Workers: 1, CacheDir: dir, Version: tc.readVersion})
			Do(h, key, func() (payload, error) {
				t.Fatal("repaired entry must be warm")
				return payload{}, nil
			})
		})
	}
}

// TestConcurrentWritersSameDir hammers one cache directory from many pools at
// once (distinct processes in real life): every Do must return the right
// value and the directory must end up with exactly the valid entries.
// Run under -race in CI.
func TestConcurrentWritersSameDir(t *testing.T) {
	dir := t.TempDir()
	const pools, cells = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, pools*cells)
	for i := 0; i < pools; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := New(Options{Workers: 2, CacheDir: dir, Version: "v1"})
			for c := 0; c < cells; c++ {
				c := c
				got, _ := Do(p, fmt.Sprint(c), func() (payload, error) {
					pl := samplePayload()
					pl.Name = fmt.Sprintf("cell-%d", c)
					return pl, nil
				})
				if want := fmt.Sprintf("cell-%d", c); got.Name != want {
					errs <- fmt.Sprintf("got %q want %q", got.Name, want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Every entry left on disk must be readable and correct.
	v := New(Options{Workers: 1, CacheDir: dir, Version: "v1"})
	for c := 0; c < cells; c++ {
		c := c
		got, _ := Do(v, fmt.Sprint(c), func() (payload, error) {
			t.Fatalf("cell %d not on disk after concurrent writes", c)
			return payload{}, nil
		})
		if got.Name != fmt.Sprintf("cell-%d", c) {
			t.Fatalf("cell %d corrupted: %+v", c, got)
		}
	}
	if st := v.Stats(); st.DiskErrors != 0 || st.DiskHits != cells {
		t.Fatalf("verifier stats = %+v", st)
	}
}

func truncateTo(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}
