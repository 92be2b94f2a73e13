package rescache

import (
	"container/list"
	"sync"
)

// Memory is the hot tier: a byte-budgeted LRU of artifact blobs. Entries
// are whole []byte values keyed by spec digest; inserting past the budget
// evicts from the cold end until the new entry fits. A blob larger than
// the entire budget is simply not cached — it would evict everything and
// then be evicted itself on the next insert.
type Memory struct {
	mu        sync.Mutex
	cap       int64
	bytes     int64
	order     *list.List // front = most recently used; values are *memEntry
	index     map[string]*list.Element
	evictions uint64
}

type memEntry struct {
	key  string
	blob []byte
}

// NewMemory builds an LRU with the given byte budget (<= 0 disables the
// tier: every Get misses, every Put is dropped).
func NewMemory(capBytes int64) *Memory {
	return &Memory{
		cap:   capBytes,
		order: list.New(),
		index: map[string]*list.Element{},
	}
}

// Get returns the blob stored under key, refreshing its recency. Callers
// must not mutate the returned bytes.
func (m *Memory) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.index[key]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).blob, true
}

// Put stores blob under key as the most recently used entry, evicting from
// the cold end to stay under budget. Re-putting a key refreshes its bytes
// and recency.
func (m *Memory) Put(key string, blob []byte) {
	if int64(len(blob)) > m.cap {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.index[key]; ok {
		ent := el.Value.(*memEntry)
		m.bytes += int64(len(blob)) - int64(len(ent.blob))
		ent.blob = blob
		m.order.MoveToFront(el)
	} else {
		m.index[key] = m.order.PushFront(&memEntry{key: key, blob: blob})
		m.bytes += int64(len(blob))
	}
	for m.bytes > m.cap {
		back := m.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*memEntry)
		m.order.Remove(back)
		delete(m.index, ent.key)
		m.bytes -= int64(len(ent.blob))
		m.evictions++
	}
}

// Stats returns entry count, resident bytes, byte budget, and cumulative
// evictions.
func (m *Memory) Stats() (entries int, bytes, capBytes int64, evictions uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len(), m.bytes, m.cap, m.evictions
}
