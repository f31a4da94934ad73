package device

import (
	"sort"
	"strings"
	"testing"
)

func TestListIsSortedAndStable(t *testing.T) {
	got := List()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("List() not sorted: %v", got)
	}
	again := List()
	if len(got) != len(again) {
		t.Fatalf("List() unstable: %v vs %v", got, again)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("List() unstable at %d: %v vs %v", i, got, again)
		}
	}
	for _, want := range []string{"k40c", "p100", "haswell", "legacy-xeon", "hetero"} {
		if i := sort.SearchStrings(got, want); i >= len(got) || got[i] != want {
			t.Errorf("builtin %q missing from List() = %v", want, got)
		}
	}
}

func TestOpenBuiltins(t *testing.T) {
	kinds := map[string]string{
		"k40c": "gpu", "p100": "gpu",
		"haswell": "cpu", "legacy-xeon": "cpu",
		"hetero": "hetero",
	}
	for _, name := range List() {
		d, err := Open(name)
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Errorf("Open(%q).Name() = %q", name, d.Name())
		}
		if want, ok := kinds[name]; ok && d.Kind() != want {
			t.Errorf("Open(%q).Kind() = %q, want %q", name, d.Kind(), want)
		}
		if spec := d.Spec(); spec.CatalogName == "" || spec.IdlePowerW <= 0 {
			t.Errorf("Open(%q).Spec() = %+v: incomplete", name, spec)
		}
	}
}

func TestOpenReturnsFreshInstances(t *testing.T) {
	a, err := Open("p100")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open("p100")
	if err != nil {
		t.Fatal(err)
	}
	if a.(*GPU).dev == b.(*GPU).dev {
		t.Fatal("Open returned the same gpusim.Device twice; ablation state could leak between users")
	}
}

func TestOpenUnknownListsKnownNames(t *testing.T) {
	_, err := Open("gtx480")
	if err == nil {
		t.Fatal("Open of unknown device succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"gtx480"`) {
		t.Errorf("error %q does not name the unknown device", msg)
	}
	for _, name := range List() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not enumerate known device %q", msg, name)
		}
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	mustPanic := func(name string, f func() (Device, error)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		Register(name, f)
	}
	mustPanic("p100", func() (Device, error) { return nil, nil })
	mustPanic("", func() (Device, error) { return nil, nil })
	mustPanic("new-device", nil)
}
