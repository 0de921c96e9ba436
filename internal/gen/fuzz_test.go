package gen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/topo"
)

// FuzzLoadDir: no topology.txt panics LoadDir, and a directory LoadDir
// accepts round-trips through WriteDir unchanged: loading what WriteDir
// wrote gives the same nodes, links and configs, and writing that again
// gives the same bytes. Every node named in the input gets a minimal
// config, so the topology text alone decides acceptance.
func FuzzLoadDir(f *testing.F) {
	f.Add("node a as=1 vendor=alpha region=r0 group=g role=pe\nnode b as=2\nlink a b 10\n")
	f.Add("# comment\n\nnode x\nnode y as=64500 vendor=beta\nlink x y 0\nlink y x 7\n")
	f.Add("node a\nlink a b 10\n")
	f.Add("node a as=4294967296\n")
	f.Add("frob a\n")
	f.Fuzz(func(t *testing.T, text string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "topology.txt"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(text, "\n") {
			f := strings.Fields(line)
			if len(f) < 2 || f[0] != "node" || strings.ContainsAny(f[1], "/\x00") {
				continue
			}
			os.WriteFile(filepath.Join(dir, f[1]+".cfg"), []byte("hostname "+f[1]+"\n"), 0o644)
		}
		net, snap, err := LoadDir(dir)
		if err != nil {
			return
		}
		out := t.TempDir()
		if err := WriteDir(out, net, snap); err != nil {
			t.Fatalf("WriteDir of an accepted directory: %v", err)
		}
		net2, snap2, err := LoadDir(out)
		if err != nil {
			t.Fatalf("what WriteDir wrote does not load: %v", err)
		}
		if a, b := dirText(t, net, snap), dirText(t, net2, snap2); a != b {
			t.Fatalf("round trip changed the directory:\n%s\n---\n%s", a, b)
		}
	})
}

// dirText is the directory WriteDir makes of net and snap, as one text.
func dirText(t *testing.T, net *topo.Network, snap config.Snapshot) string {
	dir := t.TempDir()
	if err := WriteDir(dir, net, snap); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("== " + e.Name() + "\n" + string(raw))
	}
	return b.String()
}
