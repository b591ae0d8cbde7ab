package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMain doubles as the entry point of the children the chaos command
// re-execs: with LEEDCTL_CHILD set, the test binary is leedctl itself.
func TestMain(m *testing.M) {
	if os.Getenv("LEEDCTL_CHILD") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestChaosKill runs the kill drill through leedctl's own spawner: a
// `serve -listen` child on a fresh image, SIGKILLed mid-load, restarted on
// the same image, every acked write read back exactly, and a clean drain
// (exit 0 and "drained") on SIGTERM.
func TestChaosKill(t *testing.T) {
	t.Setenv("LEEDCTL_CHILD", "1")
	img := filepath.Join(t.TempDir(), "kill.img")
	if err := chaosCmd(img, 64<<20, 4, false, 1, "kill", "", nil); err != nil {
		t.Fatal(err)
	}
}
