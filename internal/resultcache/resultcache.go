// Package resultcache provides content-addressed storage for deterministic
// simulation results: a canonical-JSON keying helper shared by every cache
// in the daemon, and a two-tier (memory LRU + optional disk) byte store.
//
// The premise is the simulator's determinism contract: a job's result bytes
// are a pure function of its effective spec, so the SHA-256 of the
// canonical spec is a complete address for the result. Two submissions that
// would run the same simulation — regardless of the field order of the
// JSON they arrived as, or which defaults were spelled out — share one
// address and therefore one simulation.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Canonical renders v as canonical JSON. encoding/json is the
// canonicalizer: struct fields serialise in declaration order, map keys in
// sorted order, with no insignificant whitespace — so any two values that
// are equal after decoding produce identical bytes, independent of the key
// order of the documents they were decoded from.
func Canonical(v any) ([]byte, error) { return json.Marshal(v) }

// Key returns the content address of v: the SHA-256 of its canonical JSON,
// in lowercase hex. The hex form doubles as a safe file name for the disk
// tier.
func Key(v any) (string, error) {
	b, err := Canonical(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Stats is a point-in-time snapshot of the cache counters. Hits counts
// lookups served from either tier; DiskHits is the subset that had to be
// promoted from disk.
type Stats struct {
	Hits, Misses, Evictions, DiskHits int64
}

// Cache is the two-tier store: a bounded in-memory LRU over immutable byte
// slices, optionally backed by a directory of content-named files that
// survives restarts and memory eviction. All methods are safe for
// concurrent use. Callers must not mutate returned or stored slices.
type Cache struct {
	mu  sync.Mutex
	cap int
	dir string
	m   map[string]*list.Element
	l   *list.List // front = most recently used; values are *entry

	hits, misses, evictions, diskHits atomic.Int64
}

type entry struct {
	key string
	val []byte
}

// New builds a cache holding up to capacity entries in memory. dir, when
// non-empty, roots the disk tier: Put writes through to it, and a memory
// miss falls back to it before reporting a miss. The directory is created
// on first use.
func New(capacity int, dir string) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, dir: dir,
		m: make(map[string]*list.Element), l: list.New()}
}

// Get returns the bytes stored under key. A memory hit refreshes recency;
// a disk hit promotes the bytes into the memory tier.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.l.MoveToFront(e)
		val := e.Value.(*entry).val // read under the lock: Put may replace it
		c.mu.Unlock()
		c.hits.Add(1)
		return val, true
	}
	c.mu.Unlock()
	if b, ok := c.readDisk(key); ok {
		c.putMemory(key, b)
		c.hits.Add(1)
		c.diskHits.Add(1)
		return b, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores val under key in the memory tier and, when the disk tier is
// configured, writes it through atomically (temp file + rename) first, so an
// entry visible in memory is already on disk. Disk write failures are
// ignored: the disk tier is an accelerator, not a system of record, and the
// memory tier stays authoritative.
func (c *Cache) Put(key string, val []byte) {
	c.writeDisk(key, val)
	c.putMemory(key, val)
}

func (c *Cache) putMemory(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.Value.(*entry).val = val
		c.l.MoveToFront(e)
		return
	}
	c.m[key] = c.l.PushFront(&entry{key: key, val: val})
	for len(c.m) > c.cap {
		back := c.l.Back()
		delete(c.m, back.Value.(*entry).key)
		c.l.Remove(back)
		c.evictions.Add(1)
	}
}

// Len is the number of entries in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		DiskHits:  c.diskHits.Load(),
	}
}

// diskPath maps a key to its file, refusing anything that is not a plain
// hex name (keys come from Key, but the cache is defensive about path
// traversal anyway).
func (c *Cache) diskPath(key string) (string, bool) {
	if c.dir == "" || key == "" || filepath.Base(key) != key {
		return "", false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return "", false
		}
	}
	return filepath.Join(c.dir, key+".json"), true
}

func (c *Cache) readDisk(key string) ([]byte, bool) {
	p, ok := c.diskPath(key)
	if !ok {
		return nil, false
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	return b, true
}

func (c *Cache) writeDisk(key string, val []byte) {
	p, ok := c.diskPath(key)
	if !ok {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(val); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
	}
}
