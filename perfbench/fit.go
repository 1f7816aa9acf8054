package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/feataug"
	"repro/internal/hpo"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// fitWorkload runs one cold Fit per op, each on a distinct generated problem.
// Problem i is generated from (seed, i) between ops, never inside one. Setup
// generates problem 0 only: a run holding all its problems would raise the
// live heap every op starts from, and with it the GC pacing the ops are timed
// under.
type fitWorkload struct {
	cfg      config
	gen      datagen.Generator
	opts     datagen.Options
	model    ml.Kind
	n        int
	layerOps int // ops whose problems the layer phase replays

	first *datagen.Dataset       // problem 0, built in setup
	plans []*feataug.FeaturePlan // the latest pass's plans, for the layer phase
}

// newFitStudent: XGB (the library default) on student problems of 150
// training rows and about 4.5k relevant rows. GBDT training dominates the op.
// The problems are smaller than first specified (400 rows) because the op
// follows the host less the less memory it works in: run alternately at one
// seed, 400-row medians ranged 22% over four rounds and 200-row ones 17%, and
// over five seeds run in pairs, 200-row medians ranged 27% and 150-row ones
// 13%. A run has at least 30 ops, whatever --seconds asks, so that its median
// does not hang on a few problems and its tail (p66.7, ten ops beyond it) is
// not its median.
func newFitStudent(cfg config) workload {
	w := &fitWorkload{cfg: cfg, gen: datagen.Student, model: ml.KindXGB,
		opts: datagen.Options{TrainRows: 150}}
	w.n = opCount(cfg, 450*time.Millisecond, 30)
	if cfg.toy {
		w.opts = datagen.Options{TrainRows: 80, LogsPerKey: 6}
		w.n = 2
	}
	w.layerOps = min(w.n, 3)
	return w
}

// dataset generates problem i's data from (seed, i).
func (w *fitWorkload) dataset(i int) *datagen.Dataset {
	o := w.opts
	o.Seed = opSeed(w.cfg.seed, i)
	return w.gen(o)
}

// problem returns problem i, freshly generated except for problem 0, which
// setup built: a problem's tables carry the caches an op builds on them, so
// each is used by one op only.
func (w *fitWorkload) problem(i int) pipeline.Problem {
	d := w.first
	if i != 0 || d == nil {
		d = w.dataset(i)
	}
	w.first = nil
	return repro.DatasetProblem(d)
}

func (w *fitWorkload) setup() error {
	w.first = w.dataset(0)
	return nil
}

func (w *fitWorkload) close() {}

// run performs the n fit ops. Untraced ops call feataug.Fit; traced ops run
// the same steps Fit runs (NewEvaluator, NewEngine(...).Run, NewPlan) so the
// evaluator's counters can be read, with a span per progress stage.
func (w *fitWorkload) run(tr *tracer, m metrics) (*phase, error) {
	ph := &phase{}
	w.plans = make([]*feataug.FeaturePlan, w.n)
	var fits, proxies, core, fused []float64
	for i := 0; i < w.n; i++ {
		p := w.problem(i)
		seed := opSeed(w.cfg.seed, i)
		// Every op starts from the same heap: only the problem and what the
		// program keeps are live, so GC pacing inside the op, and the peak
		// it reaches, do not depend on the garbage earlier ops left.
		runtime.GC()
		before := sampleProc()
		t0 := time.Now()
		var plan *feataug.FeaturePlan
		var err error
		if tr == nil {
			plan, err = feataug.Fit(context.Background(), p, feataug.WithModel(w.model),
				feataug.WithSeed(seed), feataug.WithAggFuncs(agg.Basic()...))
		} else {
			var c fitCounts
			plan, c, err = tracedFit(tr, i, p, w.model, seed)
			fits = append(fits, float64(c.fits))
			proxies = append(proxies, float64(c.proxies))
			core = append(core, float64(c.st.CoreQueries))
			fused = append(fused, float64(c.st.FusedQueries))
		}
		elapsed := time.Since(t0)
		ph.proc.add(before.to(sampleProc()))
		ph.lat = append(ph.lat, ms(elapsed))
		ph.timedSec += elapsed.Seconds()
		if err == nil {
			err = checkPlan(p, plan)
		}
		if err == nil {
			var data []byte
			data, err = plan.Encode()
			ph.outDigest = hashBytes(ph.outDigest, data)
			w.plans[i] = plan
		}
		if err != nil {
			fmt.Printf("# op %d: %v\n", i, err)
		}
		ph.ok = append(ph.ok, err == nil)
	}
	if tr != nil {
		m.layer("pipeline.model_fits", median(fits))
		m.layer("pipeline.proxy_evals", median(proxies))
		m.layer("query.core_queries", median(core))
		m.layer("query.fused_queries", median(fused))
		for _, st := range []string{"qti", "warmup", "generate", "materialize"} {
			m.layer("feataug."+st+"_ms", tr.perOp("feataug."+st, w.n))
		}
	}
	return ph, nil
}

// fitCounts are one traced fit's exact work counts.
type fitCounts struct {
	fits, proxies int
	st            query.ExecutorStats
}

// tracedFit is feataug.Fit spelled out, with an op span, one child span per
// progress stage, and the evaluator's and executor's counters read back.
func tracedFit(tr *tracer, op int, p pipeline.Problem, model ml.Kind, seed int64) (*feataug.FeaturePlan, fitCounts, error) {
	var c fitCounts
	root := tr.begin("fit", -1, op)
	defer tr.end(root)
	ev, err := pipeline.NewEvaluator(p, model, seed)
	if err != nil {
		return nil, c, err
	}
	stages := &stageSpans{tr: tr, op: op, parent: root, cur: -1}
	cfg := feataug.Config{Seed: seed, Progress: stages.progress, Stats: func(s query.ExecutorStats) { c.st = s }}
	res, err := feataug.NewEngine(ev, agg.Basic(), cfg).Run(context.Background())
	stages.close()
	if err != nil {
		return nil, c, err
	}
	c.fits, c.proxies = ev.Evaluations, ev.ProxyEvaluations
	return feataug.NewPlan(p, res), c, nil
}

// stageSpans turns Fit's progress callbacks into spans. QTI, generation and
// materialisation open on (stage, done < total); a template's warm-up is the
// interval between its two StageWarmup callbacks, after which generation of
// that template resumes.
type stageSpans struct {
	tr         *tracer
	op, parent int
	cur        int
	inWarmup   bool
}

func (s *stageSpans) progress(stage feataug.Stage, done, total int) {
	wasWarmup := s.inWarmup
	s.close()
	var next string
	switch stage {
	case feataug.StageQTI:
		if done < total {
			next = "feataug.qti"
		}
	case feataug.StageWarmup:
		if wasWarmup {
			next = "feataug.generate"
		} else {
			next = "feataug.warmup"
			s.inWarmup = true
		}
	case feataug.StageGenerate:
		if done < total {
			next = "feataug.generate"
		}
	case feataug.StageMaterialize:
		if done < total {
			next = "feataug.materialize"
		}
	}
	if next != "" {
		s.cur = s.tr.begin(next, s.parent, s.op)
	}
}

func (s *stageSpans) close() {
	s.tr.end(s.cur)
	s.cur, s.inWarmup = -1, false
}

// checkPlan is a fit op's output check: the plan is non-empty with finite
// losses, and its Transformer's features on the training keys equal the
// reference oracle, Query.Execute over the relevant table.
func checkPlan(p pipeline.Problem, plan *feataug.FeaturePlan) error {
	if len(plan.Queries) == 0 {
		return fmt.Errorf("empty plan")
	}
	for _, pq := range plan.Queries {
		if math.IsNaN(pq.Loss) || math.IsInf(pq.Loss, 0) {
			return fmt.Errorf("query %s: loss %v", pq.Feature, pq.Loss)
		}
	}
	tr, err := plan.Transformer(p.Relevant)
	if err != nil {
		return err
	}
	got, err := tr.Matrix(context.Background(), p.Train)
	if err != nil {
		return err
	}
	for j, pq := range plan.Queries {
		want, err := executeOracle(pq.Query, p.Relevant)
		if err != nil {
			return err
		}
		keys, err := tableKeys(p.Train, pq.Query.Keys)
		if err != nil {
			return err
		}
		vals, valid := got.Col(j)
		if err := want.check(keys, vals, valid); err != nil {
			return fmt.Errorf("%s: %w", pq.Query.SQL("R"), err)
		}
	}
	return nil
}

// layers replays the first few problems' plans through each layer's public
// entry points, timing every call.
func (w *fitWorkload) layers(tr *tracer, m metrics) error {
	for i := 0; i < w.layerOps; i++ {
		plan := w.plans[i]
		if plan == nil {
			continue // the op failed, and counts as failed already
		}
		if err := w.layerProblem(tr, i, w.problem(i), plan, opSeed(w.cfg.seed, i)); err != nil {
			return fmt.Errorf("layer phase op %d: %w", i, err)
		}
	}
	for _, name := range []string{"query.feature", "pipeline.loss", "stats.proxy", "ml.assemble", "ml.fit", "query.space", "hpo.suggest"} {
		m.layer(name+"_ms", median(tr.durations(name)))
	}
	return nil
}

// layerProblem times one problem's layer calls: Evaluator.Feature on a fresh
// evaluator once per plan query, then QueryLoss and ProxyScore with the
// feature cached, dataset assembly and one model fit per query, and
// SpaceCache.Space plus a TPE replay per template.
func (w *fitWorkload) layerProblem(tr *tracer, op int, p pipeline.Problem, plan *feataug.FeaturePlan, seed int64) error {
	ev, err := pipeline.NewEvaluator(p, w.model, seed)
	if err != nil {
		return err
	}
	timed := func(name string, f func() error) error {
		id := tr.begin(name, -1, op)
		err := f()
		tr.end(id)
		return err
	}
	for _, pq := range plan.Queries {
		if err := timed("query.feature", func() error { _, _, err := ev.Feature(pq.Query); return err }); err != nil {
			return err
		}
	}
	for _, pq := range plan.Queries {
		var loss float64
		if err := timed("pipeline.loss", func() (err error) { loss, err = ev.QueryLoss(pq.Query); return err }); err != nil {
			return err
		}
		if !closeTo(loss, pq.Loss) {
			return fmt.Errorf("%s: QueryLoss %v, plan says %v", pq.Feature, loss, pq.Loss)
		}
		if err := timed("stats.proxy", func() error { _, err := ev.ProxyScore(pq.Query, pipeline.ProxyMI); return err }); err != nil {
			return err
		}
	}
	feats := append(append([]string(nil), p.BaseFeatures...), "__cand")
	for _, pq := range plan.Queries {
		vals, valid, err := ev.Feature(pq.Query)
		if err != nil {
			return err
		}
		tbl := p.Train.Clone()
		if err := tbl.AddColumn(dataframe.NewFloatColumn("__cand", vals, valid)); err != nil {
			return err
		}
		var split *ml.Split
		if err := timed("ml.assemble", func() error {
			ds, err := ml.FromTable(tbl, feats, p.Label)
			if err != nil {
				return err
			}
			split, err = ml.SplitDataset(ds, ev.TrainFrac, ev.ValidFrac, seed)
			return err
		}); err != nil {
			return err
		}
		model, err := ml.New(w.model, p.Task, seed)
		if err != nil {
			return err
		}
		if err := timed("ml.fit", func() error { return model.Fit(split.Train.X, split.Train.Y) }); err != nil {
			return err
		}
	}
	spaces := query.NewSpaceCache(p.Relevant, query.SpaceOptions{})
	for _, ts := range plan.Templates {
		tpl := query.Template{Funcs: agg.Basic(), AggAttrs: p.AggAttrs, PredAttrs: ts.PredAttrs, Keys: p.Keys}
		var space *query.Space
		if err := timed("query.space", func() (err error) { space, err = spaces.Space(tpl); return err }); err != nil {
			return err
		}
		replayTPE(tr, op, space.Cardinalities(), seed)
	}
	return nil
}

// replayTPE drives TPE.Suggest through one template's warm-up and generation
// rounds at the Fit budget with a zero-cost objective, timing each Suggest.
func replayTPE(tr *tracer, op int, cards []int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	objective := func(x []int) float64 {
		loss := 0.0
		for j, v := range x {
			loss += float64((v*31 + j) % 7)
		}
		return loss
	}
	drive := func(t *hpo.TPE, iters int) {
		for it := 0; it < iters; it++ {
			id := tr.begin("hpo.suggest", -1, op)
			x := t.Suggest()
			tr.end(id)
			t.Observe(hpo.Observation{X: x, Loss: objective(x)})
		}
	}
	warm := hpo.NewTPE(cards, rng, hpo.TPEOptions{})
	drive(warm, feataug.DefaultWarmupIters)
	gen := hpo.NewTPE(cards, rng, hpo.TPEOptions{NumStartup: 1})
	_ = gen.Prime(hpo.TopK(warm, feataug.DefaultWarmupTopK)) // observations came from this space
	drive(gen, feataug.DefaultGenIters)
}
