package once

import "testing"

func TestMapStartsOverAtItsCap(t *testing.T) {
	m := New[string, int](2)
	m.Put("a", 1)
	m.Put("b", 2)
	if v, ok := GetBytes(m, []byte("a")); !ok || v != 1 {
		t.Fatalf("GetBytes(a) = %d, %v", v, ok)
	}
	m.Put("c", 3)
	if _, ok := m.Get("a"); ok {
		t.Fatal("a survived a put past the cap")
	}
	if v, ok := m.Get("c"); !ok || v != 3 {
		t.Fatalf("Get(c) = %d, %v", v, ok)
	}
}

func TestGetBytesAllocatesNothing(t *testing.T) {
	m := New[string, int](4)
	key := []byte("orders\x00o_id\x01amount\x02CHECK (amount >= 0 AND amount < 1000000)")
	m.Put(string(key), 1)
	if n := testing.AllocsPerRun(100, func() { GetBytes(m, key) }); n != 0 {
		t.Fatalf("GetBytes allocated %.0f objects per lookup", n)
	}
}
