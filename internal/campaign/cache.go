package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tornado/internal/graph"
)

// The result cache is content-addressed: one file per (graph, spec) pair,
// named <sha256(fingerprint + "\n" + canonical spec JSON)>.json and holding
// the marshaled Result. Writes go through atomic rename, so concurrent
// campaigns over the same cache directory at worst redo work — they never
// corrupt an entry.

// CacheKey returns the cache key a campaign over (g, spec) is stored
// under: a hex sha256 of the graph fingerprint and the normalized spec.
// Anything that changes the computed result — a rewired edge, a different
// trial budget or seed — changes the key; Workers and other Options do
// not participate.
func CacheKey(g *graph.Graph, spec Spec) string {
	return cacheKey(g.Fingerprint(), spec.normalize(g.Total))
}

// scanOrderVersion participates in the cache key so entries computed under
// a different shard scan order (and thus with different recorded failure
// sets) miss instead of being served stale. "rd1" = revolving-door order,
// introduced with manifestVersion 2; v1's lexicographic entries hashed
// without any order tag. "rd2" = shards record their lexicographically
// smallest failures instead of the first in scan order (manifestVersion 3),
// making merged Failures independent of shard layout.
const scanOrderVersion = "rd2"

// scanOrderVersionSampled tags sampled-certification entries (KindSampled).
// Sampled campaigns draw from their own RNG seed domain and record
// stratified tallies rather than scan results, so their cache population
// is versioned independently of the exhaustive scan order. Worst-case
// entries keep "rd2" whichever scan driver wrote them: the bit-sliced
// scan reproduces the earlier scalar scan's results bit for bit, so its
// caches stay valid.
const scanOrderVersionSampled = "st1"

// orderVersion returns the scan-order tag a normalized spec's cache
// entries are hashed under.
func orderVersion(normSpec Spec) string {
	if normSpec.Kind == KindSampled {
		return scanOrderVersionSampled
	}
	return scanOrderVersion
}

func cacheKey(fingerprint string, normSpec Spec) string {
	data, err := json.Marshal(normSpec)
	if err != nil {
		// Spec is a plain struct of marshalable fields; this cannot fail.
		panic(fmt.Sprintf("campaign: marshaling spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(fingerprint))
	h.Write([]byte{'\n'})
	h.Write([]byte(orderVersion(normSpec)))
	h.Write([]byte{'\n'})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

func cachePath(cacheDir, key string) string {
	return filepath.Join(cacheDir, key+".json")
}

// loadCache returns the cached result for key, if present and readable. A
// corrupt entry is treated as a miss — the campaign reruns and overwrites
// it.
func loadCache(cacheDir, key string) (*Result, bool) {
	res, err := decodeResultFile(cachePath(cacheDir, key))
	if err != nil {
		return nil, false
	}
	return res, true
}

func storeCache(cacheDir, key string, res *Result) error {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	return writeJSONAtomic(cachePath(cacheDir, key), res)
}

func decodeResultFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("campaign: corrupt result %s: %w", path, err)
	}
	if res.Kind != KindWorstCase && res.Kind != KindProfile && res.Kind != KindSampled {
		return nil, fmt.Errorf("campaign: result %s has unknown kind %q", path, res.Kind)
	}
	return &res, nil
}
