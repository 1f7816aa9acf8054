package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// discreteMI is MI between two discrete assignments through the package's one
// MI path: x rank-coded as the labels are, counted into the dense table.
// Mismatched or empty inputs score 0.
func discreteMI(x, y []int) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	xc := CodeLabels(x)
	ids := make([]int, len(x))
	for i, c := range xc.codes {
		ids[i] = int(c)
	}
	return new(scratch).mutualInformation(ids, len(xc.counts), CodeLabels(y))
}

// refMutualInformation is MI as the package computed it before the dense
// count: three maps and the joint keys sorted, the oracle MIScore must match
// bit for bit.
func refMutualInformation(x, y []int) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	joint := map[[2]int]int{}
	px := map[int]int{}
	py := map[int]int{}
	for i := range x {
		joint[[2]int{x[i], y[i]}]++
		px[x[i]]++
		py[y[i]]++
	}
	keys := make([][2]int, 0, len(joint))
	for k := range joint {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	mi := 0.0
	for _, k := range keys {
		pxy := float64(joint[k]) / n
		mi += pxy * math.Log(pxy/((float64(px[k[0]])/n)*(float64(py[k[1]])/n)))
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// refDiscretize is Discretize as it stood before the pooled scratch: a fresh
// copy of the present values, sorted by sort.Float64s.
func refDiscretize(values []float64, valid []bool, bins int) []int {
	if bins <= 0 {
		bins = DefaultBins
	}
	present := make([]float64, 0, len(values))
	for i, v := range values {
		if valid == nil || valid[i] {
			present = append(present, v)
		}
	}
	sort.Float64s(present)
	var cuts []float64
	for b := 1; b < bins; b++ {
		idx := int(float64(b) / float64(bins) * float64(len(present)))
		if idx >= len(present) {
			idx = len(present) - 1
		}
		if idx < 0 {
			continue
		}
		if c := present[idx]; len(cuts) == 0 || cuts[len(cuts)-1] != c {
			cuts = append(cuts, c)
		}
	}
	out := make([]int, len(values))
	for i, v := range values {
		if valid != nil && !valid[i] {
			out[i] = bins
			continue
		}
		out[i] = sort.SearchFloat64s(cuts, v)
		for out[i] > 0 && v <= cuts[out[i]-1] {
			out[i]--
		}
	}
	return out
}

// refMIScore is the oracle MIScore.
func refMIScore(feature []float64, valid []bool, labels []int, bins int) float64 {
	return refMutualInformation(refDiscretize(feature, valid, bins), labels)
}

func TestDiscretizeEqualFrequency(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	bins := Discretize(vals, nil, 4)
	counts := map[int]int{}
	for _, b := range bins {
		counts[b]++
	}
	if len(counts) != 4 {
		t.Fatalf("bucket count = %d, want 4 (%v)", len(counts), counts)
	}
	for b, c := range counts {
		if c < 20 || c > 30 {
			t.Errorf("bucket %d has %d values, want ~25", b, c)
		}
	}
	// Monotone: larger values never land in smaller buckets.
	for i := 1; i < len(vals); i++ {
		if bins[i] < bins[i-1] {
			t.Fatal("discretisation not monotone")
		}
	}
}

func TestDiscretizeMissingBucket(t *testing.T) {
	vals := []float64{1, 2, 3, 0}
	valid := []bool{true, true, true, false}
	bins := Discretize(vals, valid, 3)
	if bins[3] != 3 {
		t.Fatalf("missing value bucket = %d, want %d", bins[3], 3)
	}
}

func TestDiscretizeConstantAndDefaults(t *testing.T) {
	bins := Discretize([]float64{5, 5, 5}, nil, 0) // 0 → DefaultBins
	for _, b := range bins {
		if b != 0 {
			t.Fatalf("constant input bins = %v", bins)
		}
	}
}

func TestEntropyKnownValues(t *testing.T) {
	if got := Entropy([]int{0, 1}); !almost(got, math.Ln2, 1e-12) {
		t.Errorf("Entropy = %v, want ln2", got)
	}
	if got := Entropy([]int{7, 7, 7}); got != 0 {
		t.Errorf("constant entropy = %v", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("empty entropy = %v", got)
	}
}

func TestMutualInformationIdenticalEqualsEntropy(t *testing.T) {
	x := []int{0, 0, 1, 1, 2, 2}
	if got, want := discreteMI(x, x), Entropy(x); !almost(got, want, 1e-12) {
		t.Errorf("I(X;X) = %v, want H(X) = %v", got, want)
	}
}

func TestMutualInformationIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 20000
	x := make([]int, n)
	y := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(4)
		y[i] = rng.Intn(4)
	}
	if got := discreteMI(x, y); got > 0.01 {
		t.Errorf("independent MI = %v, want ~0", got)
	}
}

func TestMutualInformationEdgeCases(t *testing.T) {
	if MIScore(nil, nil, CodeLabels(nil), 10) != 0 {
		t.Error("empty MI should be 0")
	}
	if MIScore([]float64{1}, nil, CodeLabels([]int{1, 2}), 10) != 0 {
		t.Error("length mismatch should be 0")
	}
}

func TestMIScoreDetectsDependence(t *testing.T) {
	n := 1000
	feature := make([]float64, n)
	labels := make([]int, n)
	rng := rand.New(rand.NewSource(7))
	for i := range feature {
		labels[i] = rng.Intn(2)
		feature[i] = float64(labels[i])*10 + rng.Float64()
	}
	dep := MIScore(feature, nil, CodeLabels(labels), 10)
	noise := make([]float64, n)
	for i := range noise {
		noise[i] = rng.Float64()
	}
	indep := MIScore(noise, nil, CodeLabels(labels), 10)
	if dep <= indep {
		t.Fatalf("MI(dependent)=%v should beat MI(noise)=%v", dep, indep)
	}
}

func TestLabelsFromFloat(t *testing.T) {
	// discrete-int target stays as-is
	got := LabelsFromFloat([]float64{0, 1, 1, 0}, 10)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("binary labels = %v", got)
	}
	// continuous target gets binned
	y := make([]float64, 100)
	for i := range y {
		y[i] = float64(i) + 0.5
	}
	got = LabelsFromFloat(y, 4)
	distinct := map[int]bool{}
	for _, l := range got {
		distinct[l] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("binned labels have %d distinct values", len(distinct))
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y, nil); !almost(got, 1, 1e-12) {
		t.Errorf("perfect corr = %v", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(x, neg, nil); !almost(got, -1, 1e-12) {
		t.Errorf("perfect anti-corr = %v", got)
	}
	if got := Pearson([]float64{1, 1}, []float64{2, 3}, nil); got != 0 {
		t.Errorf("degenerate corr = %v", got)
	}
	if got := Pearson([]float64{1}, []float64{2}, nil); got != 0 {
		t.Errorf("n<2 corr = %v", got)
	}
}

func TestPearsonRespectsValidity(t *testing.T) {
	x := []float64{1, 2, 3, 1000}
	y := []float64{1, 2, 3, -1000}
	valid := []bool{true, true, true, false}
	if got := Pearson(x, y, valid); !almost(got, 1, 1e-12) {
		t.Errorf("masked corr = %v, want 1", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 4, 9, 16, 25} // monotone, nonlinear
	if got := Spearman(x, y, nil); !almost(got, 1, 1e-12) {
		t.Errorf("monotone Spearman = %v, want 1", got)
	}
	if got := Spearman([]float64{1}, []float64{1}, nil); got != 0 {
		t.Errorf("n<2 Spearman = %v", got)
	}
}

func TestChiSquare(t *testing.T) {
	// Perfect dependence on 2x2 with n=8 → chi2 = n = 8.
	x := []int{0, 0, 0, 0, 1, 1, 1, 1}
	y := []int{0, 0, 0, 0, 1, 1, 1, 1}
	if got := ChiSquare(x, y); !almost(got, 8, 1e-9) {
		t.Errorf("chi2 = %v, want 8", got)
	}
	indep := []int{0, 1, 0, 1, 0, 1, 0, 1}
	if got := ChiSquare(indep, y); !almost(got, 0, 1e-9) {
		t.Errorf("independent chi2 = %v, want 0", got)
	}
	if ChiSquare(nil, nil) != 0 || ChiSquare([]int{1}, []int{1, 2}) != 0 {
		t.Error("edge cases should be 0")
	}
}

func TestGiniImpurityAndGain(t *testing.T) {
	if got := GiniImpurity([]int{0, 0, 1, 1}); !almost(got, 0.5, 1e-12) {
		t.Errorf("gini = %v, want 0.5", got)
	}
	if got := GiniImpurity([]int{1, 1}); got != 0 {
		t.Errorf("pure gini = %v", got)
	}
	if got := GiniImpurity(nil); got != 0 {
		t.Errorf("empty gini = %v", got)
	}
	// Perfect split gains the full impurity.
	x := []int{0, 0, 1, 1}
	y := []int{0, 0, 1, 1}
	if got := GiniGain(x, y); !almost(got, 0.5, 1e-12) {
		t.Errorf("gain = %v, want 0.5", got)
	}
	if got := GiniGain([]int{0, 1, 0, 1}, y); !almost(got, 0, 1e-12) {
		t.Errorf("independent gain = %v, want 0", got)
	}
	if GiniGain(nil, nil) != 0 {
		t.Error("empty gain should be 0")
	}
}

// Property: MI is symmetric and bounded by min(H(X), H(Y)).
func TestPropertyMISymmetricBounded(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		x := make([]int, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = int(raw[i]) % 5
			y[i] = int(raw[n+i]) % 5
		}
		ab := discreteMI(x, y)
		ba := discreteMI(y, x)
		if !almost(ab, ba, 1e-9) {
			return false
		}
		bound := math.Min(Entropy(x), Entropy(y))
		return ab <= bound+1e-9 && ab >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Spearman is invariant under strictly monotone transforms of x.
func TestPropertySpearmanMonotoneInvariant(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 3 {
			return true
		}
		x := make([]float64, len(raw))
		y := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v)
			y[i] = float64(i) // arbitrary second variable
		}
		a := Spearman(x, y, nil)
		tx := make([]float64, len(x))
		for i, v := range x {
			tx[i] = math.Exp(v / 1e4) // strictly increasing
		}
		b := Spearman(tx, y, nil)
		return almost(a, b, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ranks are a permutation-respecting relabelling — sum of ranks is
// n(n+1)/2.
func TestPropertyRanksSum(t *testing.T) {
	f := func(raw []int8) bool {
		x := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v)
		}
		r := Ranks(x)
		s := 0.0
		for _, v := range r {
			s += v
		}
		n := float64(len(x))
		return almost(s, n*(n+1)/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fuzzMIInput decodes a fuzz case into a feature, its validity and labels.
// Values come from data cyclically (an empty data gives a constant feature),
// with four byte values standing for NaN, -0, +Inf and -Inf. labelSet picks
// binary, small signed, sparse {-5, 7, 1e9} or up to 256 classes; nullMode 0
// means no validity mask, 1 all NULL, and m > 1 NULL wherever a byte is a
// multiple of m.
func fuzzMIInput(data []byte, n uint16, labelSet, nullMode uint8) ([]float64, []bool, []int) {
	rows := 1 + int(n)%500
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	feature := make([]float64, rows)
	labels := make([]int, rows)
	var valid []bool
	if nullMode > 0 {
		valid = make([]bool, rows)
	}
	for i := range feature {
		switch b := at(i); b {
		case 0x80:
			feature[i] = math.NaN()
		case 0x81:
			feature[i] = math.Copysign(0, -1)
		case 0x82:
			feature[i] = math.Inf(1)
		case 0x83:
			feature[i] = math.Inf(-1)
		default:
			feature[i] = float64(int8(b)) / 4
		}
		lb := at(7*i + 3)
		switch labelSet % 4 {
		case 0:
			labels[i] = int(lb % 2)
		case 1:
			labels[i] = int(lb%5) - 2
		case 2:
			labels[i] = []int{-5, 7, 1e9}[lb%3]
		case 3:
			labels[i] = int(lb)
		}
		if nullMode > 1 {
			valid[i] = at(3*i+1)%nullMode != 0
		}
	}
	return feature, valid, labels
}

// FuzzMIScoreMatchesReference requires MIScore's dense count to equal the
// map oracle bit for bit, over NULLs, all-NULL and constant features,
// negative and sparse labels, signed zeros, NaNs and infinities, lengths 1 to
// 500 and any bin count. The seed corpus runs under plain `go test`.
func FuzzMIScoreMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(149), uint8(10), uint8(0), uint8(0))
	f.Add([]byte{}, uint16(40), uint8(10), uint8(1), uint8(0))             // constant
	f.Add([]byte{9, 3, 250, 17}, uint16(60), uint8(4), uint8(2), uint8(1)) // all NULL
	f.Add([]byte{0x80, 0x81, 0, 0x82, 0x83, 5}, uint16(499), uint8(0), uint8(3), uint8(3))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint16(0), uint8(1), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, bins, labelSet, nullMode uint8) {
		feature, valid, labels := fuzzMIInput(data, n, labelSet, nullMode)
		b := int(bins % 33)
		got := MIScore(feature, valid, CodeLabels(labels), b)
		want := refMIScore(feature, valid, labels, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MIScore = %v (%#x), reference %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if d, ref := Discretize(feature, valid, b), refDiscretize(feature, valid, b); !slices.Equal(d, ref) {
			t.Fatalf("Discretize = %v, reference %v", d, ref)
		}
	})
}
