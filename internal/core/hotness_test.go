package core

import "testing"

func TestHotQueueTouchMovesToMRU(t *testing.T) {
	q := newHotQueue(4)
	q.push(hotEntry{orig: 1, count: 1})
	q.push(hotEntry{orig: 2, count: 1})
	q.push(hotEntry{orig: 3, count: 1})
	if n, ok := q.touch(1); !ok || n != 2 {
		t.Fatalf("touch of present entry = %d/%v, want 2/true", n, ok)
	}
	if lru, _ := q.lru(); lru.orig != 2 {
		t.Errorf("LRU after touch = %d, want 2", lru.orig)
	}
	if q.count(1) != 2 {
		t.Errorf("count after touch = %d, want 2", q.count(1))
	}
	if n, ok := q.touch(99); ok || n != 0 {
		t.Errorf("touch of absent entry = %d/%v, want 0/false", n, ok)
	}
}

func TestHotQueuePushPopsLRU(t *testing.T) {
	q := newHotQueue(2)
	q.push(hotEntry{orig: 1, count: 5})
	q.push(hotEntry{orig: 2, count: 6})
	popped, didPop := q.push(hotEntry{orig: 3, count: 7})
	if !didPop || popped.orig != 1 || popped.count != 5 {
		t.Errorf("pop = %+v/%v, want entry 1", popped, didPop)
	}
	if q.len() != 2 {
		t.Errorf("len = %d, want 2", q.len())
	}
}

func TestHotQueueRemove(t *testing.T) {
	q := newHotQueue(4)
	q.push(hotEntry{orig: 1, count: 1})
	q.push(hotEntry{orig: 2, count: 9})
	e, ok := q.remove(2)
	if !ok || e.count != 9 {
		t.Errorf("remove = %+v/%v", e, ok)
	}
	if _, ok := q.remove(2); ok {
		t.Error("double remove succeeded")
	}
	if q.len() != 1 {
		t.Errorf("len = %d, want 1", q.len())
	}
}

func TestHotQueueMinCount(t *testing.T) {
	q := newHotQueue(4)
	if q.minCount() != 0 {
		t.Errorf("empty minCount = %d", q.minCount())
	}
	q.push(hotEntry{orig: 1, count: 7})
	q.push(hotEntry{orig: 2, count: 3})
	q.push(hotEntry{orig: 3, count: 5})
	if q.minCount() != 3 {
		t.Errorf("minCount = %d, want 3", q.minCount())
	}
}

func TestHotQueuePopLRUOrder(t *testing.T) {
	q := newHotQueue(3)
	for i := int16(1); i <= 3; i++ {
		q.push(hotEntry{orig: i, count: uint32(i)})
	}
	for want := int16(1); want <= 3; want++ {
		e, ok := q.popLRU()
		if !ok || e.orig != want {
			t.Fatalf("popLRU = %+v/%v, want %d", e, ok, want)
		}
	}
	if _, ok := q.popLRU(); ok {
		t.Error("pop of empty queue succeeded")
	}
}

func TestBitvec(t *testing.T) {
	v := newBitvec(100)
	if v.popcount() != 0 {
		t.Error("fresh bitvec not empty")
	}
	v.set(0)
	v.set(63)
	v.set(64)
	v.set(99)
	if v.popcount() != 4 {
		t.Errorf("popcount = %d, want 4", v.popcount())
	}
	if !v.get(63) || !v.get(64) || v.get(50) {
		t.Error("get/set mismatch")
	}
	v.setAll(100)
	if v.popcount() != 100 {
		t.Errorf("setAll popcount = %d, want 100", v.popcount())
	}
	v.reset()
	if v.popcount() != 0 {
		t.Error("reset failed")
	}
}

func TestBitvecSetAllExactBoundary(t *testing.T) {
	v := newBitvec(64)
	v.setAll(64)
	if v.popcount() != 64 {
		t.Errorf("setAll(64) popcount = %d", v.popcount())
	}
	w := newBitvec(32)
	w.setAll(32)
	if w.popcount() != 32 {
		t.Errorf("setAll(32) popcount = %d", w.popcount())
	}
}
