//go:build amd64

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// figureDigests pins the SHA-256 of every registered driver's rendered
// text at pinScale. A refactor that claims byte-identical figures must
// leave this table alone; a deliberate behaviour change updates it in the
// same commit and says why.
var figureDigests = map[string]string{
	"motivation":          "d220811a893b8e1f5b86e7ee8f0d72c46c463686b898077c957cfa7785a8aab7",
	"4":                   "aed0b1e9820b8da2b8029c07ab62bfb8a55d413a755378e25784762cd0bd58bc",
	"5":                   "5d0d5dc79794ce85ff940d5cdda5116c2fa56f8d045f2bc4348efa1c009a7db8",
	"6":                   "7da7145e3fda314e9613bf98844fb5c2f3f52cca13b982ca9932be6bf6362c49",
	"7":                   "5a8dca94850162f10c370be8dd3e40109576085cfa3dddc019eb3b0c89b2d269",
	"8":                   "001c86b9d2b76cd61e1403c4fd2f3a7b9265124496a2b2c6a2d2f62baca7fbcb",
	"9":                   "9630e57412b0b3bd541ebbac9f3fc9e71b8431f002caab514458d7754d4df23e",
	"10":                  "3a0790cc02c6281537813c887b62a689b21fea98fbb23b6f533bda44e56a0d8a",
	"11":                  "326222d0256353c7edf72bb4b36953fdab1f7ddb88ab20a8b6772168cbfb9f54",
	"table2":              "46eb62db3048dee49b9ee8fcbeabb08270cfcb7d7ce4eff22736dfd77b9afc93",
	"ablations":           "9530179c740e142d780451985a404c469ac0a6f71c38c18cc281d19841d67b4a",
	"faults":              "3024e85fe86f4f294281c4618ad4bc96b417d713af876e734af7fdf520f6abe6",
	"elasticity":          "e81433f7ccba7e74904eb290dc2fa8b7029c51ed1785654140d6c95f1e222290",
	"federation-outage":   "f102f2bd2d1814c0a701fc5886185e78a8f7fb78554bf65434ec215ede2f6fdd",
	"federation-scaleout": "e249e1b26112ec41f44144afc93a39efd96e80394dbed4609e43dd8fc2abf83e",
	"federation-hetero":   "10234e76921bc44329479181280475d8b42dd72a9bc91c7757bcd3df3d9d6fa1",
	"extensions":          "c6fbde96a5e0be757a983f846abece4152f5e8c81bd2011dd53505d59c40043c",
	"overload":            "10ad783607ca337113b9fb02a6ef4ad3105d782c40ada45657f3f70883717365",
	"scale":               "0a28b245c200337dc289e12638825c9194d016767b1f47532ad05054f0397d7a",
}

var pinScale = Scale{Jobs: 40, WarmupFraction: 0.1, Seed: 1}

// TestFigureTextPinned renders every registered driver, including those
// "-fig all" skips, and compares each text's digest against the table.
// The build constraint holds it to amd64, where the Go compiler never fuses
// an explicit multiply-add at any GOAMD64 level (CI also runs it under
// GOAMD64=v3); other architectures may fuse them, which moves the last
// bits of the floating-point results the figures print.
func TestFigureTextPinned(t *testing.T) {
	for _, d := range Drivers() {
		out, err := d.Run(d.Scaled(pinScale))
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
			continue
		}
		sum := sha256.Sum256([]byte(out.Text.String()))
		got := hex.EncodeToString(sum[:])
		if want, ok := figureDigests[d.Name]; !ok || got != want {
			t.Errorf("driver %q: text digest %s, pinned %q", d.Name, got, want)
		}
	}
	if len(figureDigests) != len(Drivers()) {
		t.Errorf("%d pinned digests for %d registered drivers", len(figureDigests), len(Drivers()))
	}
}
