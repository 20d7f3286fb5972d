package lru

import (
	"fmt"
	"testing"
)

func TestCache(t *testing.T) {
	type step struct {
		op      string // put, get, peek
		key     string
		arg     int      // put: value
		want    int      // get/peek: value, -1 = miss
		evicted []string // put: key reported evicted
	}
	cases := []struct {
		name     string
		capacity int
		steps    []step
		keys     []string // final Keys(), least recently used first
	}{
		{"evicts in insertion order", 2, []step{
			{op: "put", key: "a", arg: 1},
			{op: "put", key: "b", arg: 2},
			{op: "put", key: "c", arg: 3, evicted: []string{"a"}},
			{op: "put", key: "d", arg: 4, evicted: []string{"b"}},
			{op: "get", key: "a", want: -1},
		}, []string{"c", "d"}},
		{"get touches", 2, []step{
			{op: "put", key: "a", arg: 1},
			{op: "put", key: "b", arg: 2},
			{op: "get", key: "a", want: 1},
			{op: "put", key: "c", arg: 3, evicted: []string{"b"}},
		}, []string{"a", "c"}},
		{"peek does not touch", 2, []step{
			{op: "put", key: "a", arg: 1},
			{op: "put", key: "b", arg: 2},
			{op: "peek", key: "a", want: 1},
			{op: "put", key: "c", arg: 3, evicted: []string{"a"}},
			{op: "peek", key: "a", want: -1},
		}, []string{"b", "c"}},
		{"put of an existing key refreshes and evicts nothing", 2, []step{
			{op: "put", key: "a", arg: 1},
			{op: "put", key: "b", arg: 2},
			{op: "put", key: "a", arg: 10},
			{op: "peek", key: "a", want: 10},
			{op: "put", key: "c", arg: 3, evicted: []string{"b"}},
		}, []string{"a", "c"}},
		{"zero capacity holds nothing", 0, []step{
			{op: "put", key: "a", arg: 1, evicted: []string{"a"}},
			{op: "get", key: "a", want: -1},
		}, []string{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.capacity)
			for i, s := range tc.steps {
				var evicted []string
				switch s.op {
				case "put":
					if k, ok := c.Put(s.key, s.arg); ok {
						evicted = []string{k}
					}
				case "get", "peek":
					read := c.Get
					if s.op == "peek" {
						read = c.Peek
					}
					v, ok := read(s.key)
					if !ok {
						v = -1
					}
					if v != s.want {
						t.Errorf("step %d: %s(%q) = %d, want %d", i, s.op, s.key, v, s.want)
					}
				}
				if fmt.Sprint(evicted) != fmt.Sprint(s.evicted) {
					t.Errorf("step %d: %s evicted %v, want %v", i, s.op, evicted, s.evicted)
				}
			}
			if got := c.Keys(); fmt.Sprint(got) != fmt.Sprint(tc.keys) {
				t.Errorf("Keys() = %v, want %v", got, tc.keys)
			}
			if c.Len() != len(tc.keys) {
				t.Errorf("Len() = %d, want %d", c.Len(), len(tc.keys))
			}
		})
	}
}
