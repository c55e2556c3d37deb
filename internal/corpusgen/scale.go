package corpusgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// ScaleConfig drives GenerateScaled, the large-corpus generator behind the
// registry's curation benchmarks and soak tests (10⁴–10⁵ scripts).
type ScaleConfig struct {
	// Seed drives all randomness; a given (competition, seed, index) is
	// bit-reproducible and independent of NumScripts.
	Seed int64
	// NumScripts is the corpus size (required, positive).
	NumScripts int
	// MinimalRatio and ImputeSplitRatio set the archetype mix: the
	// probability a script is a minimal splitter or an impute-and-split
	// (full pipeline otherwise). Zero means the generator's default mix
	// (0.18 / 0.20); a negative value disables the archetype entirely.
	MinimalRatio     float64
	ImputeSplitRatio float64
}

func (c *ScaleConfig) defaults() error {
	if c.NumScripts <= 0 {
		return fmt.Errorf("corpusgen: ScaleConfig.NumScripts must be positive, got %d", c.NumScripts)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinimalRatio == 0 {
		c.MinimalRatio = defaultMinimalRatio
	} else if c.MinimalRatio < 0 {
		c.MinimalRatio = 0
	}
	if c.ImputeSplitRatio == 0 {
		c.ImputeSplitRatio = defaultImputeSplitRatio
	} else if c.ImputeSplitRatio < 0 {
		c.ImputeSplitRatio = 0
	}
	if c.MinimalRatio+c.ImputeSplitRatio > 1 {
		return fmt.Errorf("corpusgen: archetype ratios sum to %v > 1",
			c.MinimalRatio+c.ImputeSplitRatio)
	}
	return nil
}

// scriptRNG derives script i's private generator. Unlike Generate's single
// sequential rng, each script owns an independently seeded stream, which is
// what makes the corpus prefix-stable: the first 10⁴ scripts of a
// 10⁵-script corpus are bit-identical to a 10⁴-script corpus of the same
// seed, so incremental-growth experiments compare like with like.
func (c *Competition) scriptRNG(seed int64, i int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(c.Name))
	mixed := seed*0x9E3779B1 + int64(i)*0x85EBCA77 + int64(h.Sum64()&0x7FFFFFFF)
	return rand.New(rand.NewSource(mixed))
}

// GenerateScaled synthesizes a large script corpus for the competition —
// scripts only, no dataset (pair it with Generate's sources when execution
// is needed). Stable under re-run and prefix-stable across sizes; see
// ScaleConfig and scriptRNG.
func (c *Competition) GenerateScaled(cfg ScaleConfig) ([]GeneratedScript, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	scripts := make([]GeneratedScript, 0, cfg.NumScripts)
	for i := 0; i < cfg.NumScripts; i++ {
		gs, err := c.generateScriptMix(c.scriptRNG(cfg.Seed, i), cfg.MinimalRatio, cfg.ImputeSplitRatio)
		if err != nil {
			return nil, fmt.Errorf("corpusgen: %s scaled script %d: %w", c.Name, i, err)
		}
		scripts = append(scripts, gs)
	}
	return scripts, nil
}

// ScaledID names scaled script i for corpus registries — stable across
// runs and corpus sizes, like the script itself.
func (c *Competition) ScaledID(i int) string {
	return fmt.Sprintf("%s-%06d", c.Name, i)
}
