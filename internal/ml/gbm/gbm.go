// Package gbm is a from-scratch gradient boosting machine (regression
// trees, squared loss) — the learning substrate of the LRB and LHR
// baselines, standing in for LightGBM in the original systems. It uses
// histogram-based split finding on quantile-binned features, the same
// strategy as modern GBM implementations.
package gbm

import (
	"sort"

	"raven/internal/stats"
)

// Config controls training.
type Config struct {
	Trees        int     // boosting rounds (default 30)
	MaxDepth     int     // tree depth (default 4)
	LearningRate float64 // shrinkage (default 0.1)
	Seed         int64
}

const (
	minLeaf   = 20  // minimum samples per leaf
	subsample = 0.8 // per-tree row subsampling fraction
	bins      = 64  // histogram bins per feature (at most 255: bins are uint8)
)

func (c *Config) defaults() {
	if c.Trees == 0 {
		c.Trees = 30
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.LearningRate == 0 { //lint:allow float-equal zero LearningRate means unset; fill the default
		c.LearningRate = 0.1
	}
}

type node struct {
	feature   int
	threshold float64 // split on x[feature] <= threshold
	left      int32   // child indices; -1 for leaf
	right     int32
	value     float64 // leaf prediction
}

type tree struct{ nodes []node }

func (t *tree) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.left < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a trained boosted ensemble.
type Model struct {
	cfg   Config
	bias  float64
	trees []tree
}

// Predict returns the model output for one feature vector.
func (m *Model) Predict(x []float64) float64 {
	y := m.bias
	for i := range m.trees {
		y += m.cfg.LearningRate * m.trees[i].predict(x)
	}
	return y
}

// Train fits a squared-loss GBM to (X, y). Rows of X must share a
// length. It panics on empty or ragged input.
func Train(X [][]float64, y []float64, cfg Config) *Model {
	cfg.defaults()
	if len(X) == 0 || len(X) != len(y) {
		panic("gbm: bad training data")
	}
	nf := len(X[0])
	m := &Model{cfg: cfg, bias: stats.Mean(y)}
	g := stats.NewRNG(cfg.Seed)

	// Quantile binning per feature.
	edges := make([][]float64, nf)
	binned := make([][]uint8, len(X))
	for f := 0; f < nf; f++ {
		vals := make([]float64, len(X))
		for i := range X {
			vals[i] = X[i][f]
		}
		edges[f] = quantileEdges(vals, bins)
	}
	for i := range X {
		row := make([]uint8, nf)
		for f := 0; f < nf; f++ {
			row[f] = uint8(binOf(edges[f], X[i][f]))
		}
		binned[i] = row
	}

	residual := make([]float64, len(y))
	for i := range y {
		residual[i] = y[i] - m.bias
	}

	rows := make([]int, len(X))
	for t := 0; t < cfg.Trees; t++ {
		rows = rows[:0]
		for i := range X {
			if g.Float64() < subsample {
				rows = append(rows, i)
			}
		}
		if len(rows) < 2*minLeaf {
			break
		}
		tr := buildTree(binned, edges, residual, rows, cfg)
		m.trees = append(m.trees, tr)
		for i := range X {
			residual[i] -= cfg.LearningRate * tr.predict(X[i])
		}
	}
	return m
}

func quantileEdges(vals []float64, bins int) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	var edges []float64
	for b := 1; b < bins; b++ {
		v := s[b*len(s)/bins]
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	return edges
}

// binOf returns the bin index of v: number of edges strictly below v.
func binOf(edges []float64, v float64) int {
	return sort.SearchFloat64s(edges, v) // edges[i-1] < v <= edges[i]
}

func buildTree(binned [][]uint8, edges [][]float64, target []float64, rows []int, cfg Config) tree {
	var t tree
	t.grow(binned, edges, target, rows, cfg, 0)
	return t
}

// grow builds a subtree over rows and returns its node index.
func (t *tree) grow(binned [][]uint8, edges [][]float64, target []float64, rows []int, cfg Config, depth int) int32 {
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{left: -1, right: -1})

	sum := 0.0
	for _, r := range rows {
		sum += target[r]
	}
	mean := sum / float64(len(rows))
	t.nodes[idx].value = mean
	if depth >= cfg.MaxDepth || len(rows) < 2*minLeaf {
		return idx
	}

	nf := len(binned[rows[0]])
	bestGain := 0.0
	bestF, bestBin := -1, -1
	maxBins := bins + 1
	cnt := make([]int, maxBins)
	sums := make([]float64, maxBins)
	for f := 0; f < nf; f++ {
		for b := 0; b < maxBins; b++ {
			cnt[b], sums[b] = 0, 0
		}
		for _, r := range rows {
			b := binned[r][f]
			cnt[b]++
			sums[b] += target[r]
		}
		leftCnt, leftSum := 0, 0.0
		for b := 0; b < maxBins-1; b++ {
			leftCnt += cnt[b]
			leftSum += sums[b]
			rightCnt := len(rows) - leftCnt
			if leftCnt < minLeaf || rightCnt < minLeaf {
				continue
			}
			rightSum := sum - leftSum
			// Variance-reduction gain (up to constants):
			gain := leftSum*leftSum/float64(leftCnt) + rightSum*rightSum/float64(rightCnt) - sum*sum/float64(len(rows))
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestF, bestBin = f, b
			}
		}
	}
	if bestF < 0 || bestBin >= len(edges[bestF]) {
		return idx
	}

	var lrows, rrows []int
	for _, r := range rows {
		if int(binned[r][bestF]) <= bestBin {
			lrows = append(lrows, r)
		} else {
			rrows = append(rrows, r)
		}
	}
	if len(lrows) == 0 || len(rrows) == 0 {
		return idx
	}
	t.nodes[idx].feature = bestF
	t.nodes[idx].threshold = edges[bestF][bestBin]
	l := t.grow(binned, edges, target, lrows, cfg, depth+1)
	r := t.grow(binned, edges, target, rrows, cfg, depth+1)
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	return idx
}
