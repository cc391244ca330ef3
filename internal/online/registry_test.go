package online

import (
	"strings"
	"testing"

	"schedfilter/internal/policy"
)

func TestRegistryBootIsVersionOne(t *testing.T) {
	r := newRegistry("mpc7410", policy.Always{})
	f, v := r.ActiveFilter()
	if v != 1 || f.Name() != "LS" {
		t.Fatalf("boot: active v%d %q, want v1 LS", v, f.Name())
	}
	list := r.List()
	if len(list) != 1 || list[0].State != "active" || list[0].Target != "mpc7410" {
		t.Fatalf("boot listing wrong: %+v", list)
	}
}

func TestActivateAndRollback(t *testing.T) {
	r := newRegistry("mpc7410", policy.Always{})
	v2 := r.Register(policy.Never{}, Version{Label: "candidate"})
	if v2.Version != 2 || v2.State != "standby" {
		t.Fatalf("registered version wrong: %+v", v2)
	}
	if _, v := r.ActiveFilter(); v != 1 {
		t.Fatal("Register must not activate")
	}

	if _, err := r.Activate(2); err != nil {
		t.Fatal(err)
	}
	f, v := r.ActiveFilter()
	if v != 2 || f.Name() != "NS" {
		t.Fatalf("after activate: v%d %q", v, f.Name())
	}
	list := r.List()
	if list[0].State != "standby" || list[1].State != "active" {
		t.Fatalf("states after activate: %q, %q", list[0].State, list[1].State)
	}

	prev, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if prev.Version != 1 {
		t.Fatalf("rollback landed on v%d", prev.Version)
	}
	if _, v := r.ActiveFilter(); v != 1 {
		t.Fatal("rollback did not swap the active filter")
	}
	if r.List()[1].State != "rolled-back" {
		t.Fatalf("abandoned version state %q", r.List()[1].State)
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback past the boot version must fail")
	}
}

func TestActivateUnknownVersion(t *testing.T) {
	r := newRegistry("mpc7410", policy.Always{})
	if _, err := r.Activate(7); err == nil || !strings.Contains(err.Error(), "7") {
		t.Fatalf("unknown version: %v", err)
	}
}
