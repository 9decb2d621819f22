package serve

import (
	"testing"

	"gadt/internal/obs"
)

// TestCacheEvictionOrder pins the LRU policy: a hit refreshes an entry,
// the least recently used completed entry goes first, and an in-flight
// build is never evicted.
func TestCacheEvictionOrder(t *testing.T) {
	c := NewCache(obs.NewRegistry(), 2)
	put := func(key string) bool {
		_, _, hit := c.getOrBuild("test", key, func() (any, error) { return key, nil })
		return hit
	}
	has := func(key string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.entries[key]
		return ok
	}

	put("A")
	put("B")
	if !put("A") {
		t.Fatal("second lookup of A missed")
	}
	put("C")
	if !has("A") || has("B") || !has("C") {
		t.Fatalf("after A, B, hit A, C: A=%v B=%v C=%v, want B evicted", has("A"), has("B"), has("C"))
	}

	// D (which evicts A) stays in flight while C is hit and E arrives.
	// D is then the least recently used entry, so C goes instead.
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.getOrBuild("test", "D", func() (any, error) {
			close(started)
			<-release
			return "D", nil
		})
	}()
	<-started
	if !put("C") {
		t.Fatal("lookup of C missed while D was in flight")
	}
	put("E")
	close(release)
	<-done
	if has("A") || has("C") || !has("D") || !has("E") {
		t.Errorf("after in-flight D, hit C, E: A=%v C=%v D=%v E=%v, want only D and E",
			has("A"), has("C"), has("D"), has("E"))
	}
}
