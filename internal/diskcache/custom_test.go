package diskcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sizeOfEntry measures one persisted entry file so eviction tests can
// set budgets in whole-entry units.
func sizeOfEntry(t *testing.T, k Key, body string) int64 {
	t.Helper()
	dir := t.TempDir()
	probe := mustOpen(t, dir, "fp1", 0)
	if err := probe.Put(k, testEntry(body)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, entryName(k)))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func customKey(i int) Key {
	return Key{ID: "T1", Scale: "quick",
		Platform: fmt.Sprintf("custom-%012d", i), ContentType: "text/plain"}
}

func TestCustomChurnNeverEvictsPresets(t *testing.T) {
	// Custom entries get the main budget — but as their own namespace,
	// so the directory can hold twice it: a preset result must survive
	// any amount of custom churn, because a hostile or throwaway
	// custom registration must never cost a preset its cache.
	body := strings.Repeat("x", 4096)
	entSize := sizeOfEntry(t, customKey(0), body)

	dir := t.TempDir()
	st := mustOpen(t, dir, "fp1", 2*entSize+entSize/2)
	preset := Key{ID: "T1", Scale: "quick", Platform: "gige-8n", ContentType: "text/plain"}
	if err := st.Put(preset, testEntry(body)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond) // distinct mtimes on coarse filesystems
		if err := st.Put(customKey(i), testEntry(body)); err != nil {
			t.Fatal(err)
		}
	}

	if _, ok := st.Get(preset); !ok {
		t.Error("custom churn evicted a preset entry")
	}
	// The custom namespace itself was held to its budget: the oldest
	// uploads are gone, the newest survives.
	if _, ok := st.Get(customKey(0)); ok {
		t.Error("oldest custom entry survived past the namespace budget")
	}
	if _, ok := st.Get(customKey(4)); !ok {
		t.Error("just-written custom entry evicted by its own Put")
	}
	survivors := 0
	for i := 0; i < 5; i++ {
		if _, ok := st.Get(customKey(i)); ok {
			survivors++
		}
	}
	if survivors > 2 {
		t.Errorf("%d custom entries fit a 2-entry budget", survivors)
	}
}

func TestCustomEntryNameClassification(t *testing.T) {
	cases := []struct {
		key  Key
		want bool
	}{
		{Key{ID: "T1", Scale: "quick", Platform: "custom-abcdef012345", ContentType: "text/plain"}, true},
		{Key{ID: "T1", Scale: "quick", Platform: "gige-8n", ContentType: "text/plain"}, false},
		{Key{ID: "T1", Scale: "quick", Platform: "", ContentType: "text/plain"}, false},
		// An experiment ID can't smuggle an entry into the custom
		// namespace: only the platform component is classified.
		{Key{ID: "custom-trick", Scale: "quick", Platform: "ib-8n", ContentType: "text/plain"}, false},
	}
	for _, c := range cases {
		if got := isCustomEntry(entryName(c.key)); got != c.want {
			t.Errorf("isCustomEntry(%q) = %v, want %v", entryName(c.key), got, c.want)
		}
	}
}
