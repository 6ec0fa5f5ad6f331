package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"panrucio/internal/sim"
)

// TestBodiesPinnedAcrossCommits pins the SHA-256 of every store-derived
// /api/experiments/{id} body of a frozen QuickConfig(21) server, so a
// change to what the server renders fails here even when every layout
// still agrees with every other. It follows the rule of
// experiments.TestOutputsPinnedAcrossCommits: the values were recorded on
// linux/amd64 with Go 1.24, other architectures may fuse floating-point
// multiply-adds and render different digits, and a deliberate re-baseline
// updates the values and says so in its change notes.
func TestBodiesPinnedAcrossCommits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned values were recorded on amd64, not %s", runtime.GOARCH)
	}
	want := map[string]string{
		"summary": "dc88114836707f1cf75b8ce80e8b847e51d962ed6811529c6132661ed55e94cf",
		"rates":   "1aed2427e252df59b64f856a550f836305745d132f82f895cb4eb8ff228d9b1a",
		"fig2":    "7581b03e02e87b2b521f7973fbe26d9730105ceba9b27fbc026f819eb12f7d22",
		"fig3":    "ef5912484c0586fd82893a91b158118e4fa823bbe210baab9557bcca3742fc05",
		"table1":  "b325fc25436a0b799298734620c6c56a7dcfd7248b6690dd0000966b5e6ba103",
		"table2a": "c16eefdb3733a2173a4ca9ff3e70451f9c409279c3524cd3add9130e8f4f9207",
		"table2b": "a9a3cf8d6c7b4399f9c3f7dc069967f909bc30f65df9f1e66fecffc70e0d872f",
		"fig5":    "4dd2517a31008fc8b4cf80514f75a5c7d9befeae6dd9e84a03eaa92863fd7d65",
		"fig6":    "59a211908e8f44a94494ca5d5a08e668ab9775be5906226196d13c30efa1c63f",
		"fig7":    "e816bdd4190240b0e5f438e151d2424e582eea1d217b0cc5e5a62d290fbdc4e1",
		"fig8":    "a2fe9c42d4376bafb96f1a859967b53ece7f9bc3a2a863614e88380ede15289d",
		"fig9":    "ccd3e96c6b102f77dc7afd941718364325deec28b9335e7f253cf8204016b315",
		"fig10":   "511ac14e3079590249c3acad9355a065939b99a467e5547094aa4b7ce0fd379a",
		"fig11":   "e095ff67d2a37c1adc6f9c9fd1405c53280c1814a5774166205429502135d7f5",
		"fig12":   "686f4dea25c34593bf517629d55b5df245eeec56d7e1d9e61790fbeed30c6ac7",
		"checks":  "7c88c7ec775b1c421172b4ef00ee596544f0e898fe76da8ea863e38d76f63e03",
		"anomaly": "4dd7bf681394f60e3f6cab6c5d696ca6ec6742ca382279ab70a97980c8c2e283",
	}
	s := NewFrozen(sim.Run(sim.QuickConfig(21)), Options{})
	for _, id := range Experiments {
		if id == "e14" || id == "e15" {
			continue
		}
		sum := sha256.Sum256(get(t, s, "/api/experiments/"+id))
		got := hex.EncodeToString(sum[:])
		if got != want[id] {
			t.Errorf("/api/experiments/%s SHA-256 = %s, pinned %s", id, got, want[id])
		}
	}
}
