package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specvec/internal/experiments"
)

func mustNorm(t *testing.T, s JobSpec) JobSpec {
	t.Helper()
	norm, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestCacheLRUEntryBound fills the cache past its entry bound and checks
// the oldest entries were evicted, the newest retained, and the bound
// never exceeded.
func TestCacheLRUEntryBound(t *testing.T) {
	c := NewCache(4, 1<<20, "")
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if c.Len() != 4 {
		t.Fatalf("entries = %d, want 4", c.Len())
	}
	for i := 0; i < 6; i++ {
		if _, ok := c.lookup(fmt.Sprintf("k%d", i)); ok {
			t.Errorf("k%d survived past the entry bound", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, ok := c.lookup(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d (recent) was evicted", i)
		}
	}
	_, _, _, _, ev := c.Counters()
	if ev != 6 {
		t.Errorf("evictions = %d, want 6", ev)
	}
}

// TestCacheLRUByteBound checks the byte bound evicts independently of the
// entry bound, and that recency (lookup) protects an entry.
func TestCacheLRUByteBound(t *testing.T) {
	c := NewCache(100, 100, "")
	c.put("a", make([]byte, 40))
	c.put("b", make([]byte, 40))
	c.lookup("a") // refresh a: b becomes the LRU victim
	c.put("c", make([]byte, 40))
	if c.Bytes() > 100 {
		t.Fatalf("bytes = %d, want <= 100", c.Bytes())
	}
	if _, ok := c.lookup("b"); ok {
		t.Error("b (least recently used) survived")
	}
	if _, ok := c.lookup("a"); !ok {
		t.Error("a (refreshed) was evicted")
	}
	// A value larger than the whole bound must not wipe the cache.
	c.put("huge", make([]byte, 200))
	if _, ok := c.lookup("huge"); ok {
		t.Error("over-bound value was cached")
	}
	if _, ok := c.lookup("a"); !ok {
		t.Error("over-bound put evicted existing entries")
	}
}

// TestCacheSingleflight hammers one key from many goroutines and checks
// the compute function ran exactly once, with every caller seeing the
// same value. Run under -race in CI.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(16, 1<<20, "")
	var computes atomic.Int32
	var onceEnter sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	vals := make([][]byte, callers)
	srcs := make([]Source, callers)
	call := func(i int) {
		defer wg.Done()
		v, src, err := c.GetOrCompute(context.Background(), "shared", func() ([]byte, error) {
			computes.Add(1)
			onceEnter.Do(func() { close(entered) })
			<-release // hold the leader so followers pile into the flight
			return []byte("result"), nil
		})
		if err != nil {
			t.Error(err)
		}
		vals[i], srcs[i] = v, src
	}
	wg.Add(1)
	go call(0)
	<-entered // the leader is inside compute; now add the followers
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go call(i)
	}
	time.Sleep(50 * time.Millisecond) // let the followers reach the flight
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", n)
	}
	computed, coalesced := 0, 0
	for i := range vals {
		if string(vals[i]) != "result" {
			t.Fatalf("caller %d saw %q", i, vals[i])
		}
		switch srcs[i] {
		case SourceComputed:
			computed++
		case SourceCoalesced:
			coalesced++
		case SourceDisk:
			t.Errorf("caller %d hit disk in a memory-only cache", i)
		}
	}
	if computed != 1 {
		t.Errorf("%d callers computed, want exactly 1", computed)
	}
	if coalesced == 0 {
		t.Error("no caller joined the in-flight computation")
	}
}

// TestCacheFlightAbandoned: a follower with a live context retries when
// the leader is cancelled, instead of inheriting the cancellation.
func TestCacheFlightAbandoned(t *testing.T) {
	c := NewCache(16, 1<<20, "")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompute(leaderCtx, "k", func() ([]byte, error) {
			once.Do(func() { close(entered) })
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader: want context.Canceled, got %v", err)
		}
	}()

	<-entered
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			return []byte("retried"), nil
		})
		if err != nil || string(v) != "retried" {
			t.Errorf("follower: got %q, %v; want retried", v, err)
		}
	}()
	cancelLeader()
	wg.Wait()
	<-done
}

// TestCacheKeySensitivity: changing any of seed, scale, shards, exp,
// workload or config produces a different content address; normalization
// makes explicit defaults and omitted fields the same address.
func TestCacheKeySensitivity(t *testing.T) {
	base := mustNorm(t, JobSpec{Exp: "fig11", Scale: 50_000, Seed: 1, Shards: 1})
	variants := []JobSpec{
		{Exp: "fig11", Scale: 50_000, Seed: 2, Shards: 1},
		{Exp: "fig11", Scale: 60_000, Seed: 1, Shards: 1},
		{Exp: "fig11", Scale: 50_000, Seed: 1, Shards: 4},
		{Exp: "fig12", Scale: 50_000, Seed: 1, Shards: 1},
		{Exp: "fig11", Scale: 50_000, Seed: 1, Shards: 1, CheckpointEvery: 1000},
		{Workload: "swim", Config: "4w-1pV", Scale: 50_000, Seed: 1},
		{Workload: "swim", Config: "8w-1pV", Scale: 50_000, Seed: 1},
		{Workload: "compress", Config: "4w-1pV", Scale: 50_000, Seed: 1},
	}
	seen := map[string]string{base.Key(): "base"}
	for _, v := range variants {
		norm := mustNorm(t, v)
		key := norm.Key()
		if prev, dup := seen[key]; dup {
			t.Errorf("spec %+v collides with %s", v, prev)
		}
		seen[key] = norm.Title()
	}
	// Defaults normalize to the same address as their explicit form.
	implicit := mustNorm(t, JobSpec{Exp: "fig11", Scale: 50_000})
	if implicit.Key() != base.Key() {
		t.Error("omitted defaults produced a different key than explicit ones")
	}
	// ... including the sharded-mode auto checkpoint spacing.
	autoCkpt := experiments.Options{Shards: 4}.WithDefaults().CheckpointEvery
	if autoCkpt <= 0 {
		t.Fatalf("test premise broken: auto ckpt spacing %d", autoCkpt)
	}
	shardedImplicit := mustNorm(t, JobSpec{Exp: "fig11", Scale: 50_000, Shards: 4})
	shardedExplicit := mustNorm(t, JobSpec{Exp: "fig11", Scale: 50_000, Shards: 4, CheckpointEvery: autoCkpt})
	if shardedImplicit.Key() != shardedExplicit.Key() {
		t.Error("omitted auto ckptEvery produced a different key than its explicit value")
	}
	if base.Key() != base.Key() {
		t.Error("key not deterministic")
	}
}

// TestCacheDiskPersistence: a value survives into a fresh Cache over the
// same directory, and is promoted back into memory on first read.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	a := NewCache(8, 1<<20, dir)
	v, src, err := a.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		return []byte("persisted"), nil
	})
	if err != nil || src != SourceComputed || string(v) != "persisted" {
		t.Fatalf("compute: %q %v %v", v, src, err)
	}

	b := NewCache(8, 1<<20, dir)
	v, src, err = b.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		t.Fatal("disk hit must not recompute")
		return nil, nil
	})
	if err != nil || src != SourceDisk || string(v) != "persisted" {
		t.Fatalf("disk read: %q %v %v", v, src, err)
	}
	if v, src, _ = b.GetOrCompute(context.Background(), "k", nil); src != SourceMemory || string(v) != "persisted" {
		t.Fatalf("promotion: %q %v", v, src)
	}
}

// TestCacheDiskConcurrentStores races storeDisk calls of one key with
// payloads of different lengths. Each writer publishes through its own
// temporary file, so the persisted file always equals exactly one
// payload — never a shorter payload overlaid on a longer one — and no
// temporary file is left behind.
func TestCacheDiskConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(8, 1<<20, dir)
	payloads := map[string]bool{}
	var vals [][]byte
	for i := 0; i < 8; i++ {
		v := make([]byte, 1+i*4099)
		for j := range v {
			v[j] = byte('a' + i)
		}
		vals = append(vals, v)
		payloads[string(v)] = true
	}
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		for _, v := range vals {
			wg.Add(1)
			go func(v []byte) {
				defer wg.Done()
				if err := c.storeDisk("k", v); err != nil {
					t.Error(err)
				}
			}(v)
		}
		wg.Wait()
		got, err := os.ReadFile(c.diskPath("k"))
		if err != nil {
			t.Fatal(err)
		}
		if !payloads[string(got)] {
			t.Fatalf("round %d: persisted %d bytes matching no single payload", round, len(got))
		}
	}
	left, err := filepath.Glob(filepath.Join(filepath.Dir(c.diskPath("k")), "*.tmp"))
	if err != nil || len(left) > 0 {
		t.Errorf("temporary files left behind: %v %v", left, err)
	}
}

// TestCacheComputeErrorNotCached: a failed computation caches nothing and
// the next call retries.
func TestCacheComputeErrorNotCached(t *testing.T) {
	c := NewCache(8, 1<<20, "")
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	v, src, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || src != SourceComputed || string(v) != "ok" {
		t.Fatalf("retry after error: %q %v %v", v, src, err)
	}
}
