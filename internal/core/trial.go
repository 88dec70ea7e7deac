package core

import (
	"time"

	"occusim/internal/building"
	"occusim/internal/classify"
	"occusim/internal/fingerprint"
	"occusim/internal/svm"
)

// TrialConfig parameterises a full classification trial (Figure 9).
type TrialConfig struct {
	// Scenario describes the deployment; Building is required.
	Scenario ScenarioConfig
	// Collect configures the training-data walk.
	Collect CollectConfig
	// Walk configures the labelled test walk.
	Walk WalkConfig
	// SVMC and SVMGamma configure the RBF machine (defaults 10 and
	// 1/(#beacons)).
	SVMC     float64
	SVMGamma float64
	// KNNK configures the k-NN baseline (default 5).
	KNNK int
}

func (c TrialConfig) withDefaults() TrialConfig {
	if c.SVMC == 0 {
		c.SVMC = 10
	}
	if c.KNNK == 0 {
		c.KNNK = 5
	}
	if c.Collect.DwellPerPoint == 0 {
		c.Collect.IncludeOutside = true
	}
	if c.Walk.Duration == 0 {
		c.Walk.IncludeOutside = true
	}
	return c
}

// TrialResult is the outcome of RunClassificationTrial.
type TrialResult struct {
	// TrainSamples and TestSamples count the two datasets.
	TrainSamples, TestSamples int
	// SVM is the paper's scene-analysis classifier (RBF SVM).
	SVM classify.Result
	// Proximity is the earlier work's baseline.
	Proximity classify.Result
	// KNN is the extra scene-analysis baseline.
	KNN classify.Result
	// LinearSVM is the kernel ablation.
	LinearSVM classify.Result
	// Train and Test expose the datasets for further analysis.
	Train, Test *fingerprint.Dataset
}

// RunClassificationTrial reproduces the Section VI experiment: collect
// labelled fingerprints with an operator walk, train the scene-analysis
// SVM, then score it — against the proximity technique and the ablation
// baselines — on an independent labelled user walk.
func RunClassificationTrial(cfg TrialConfig) (*TrialResult, error) {
	cfg = cfg.withDefaults()
	scn, err := NewScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	train, err := scn.CollectFingerprints(cfg.Collect)
	if err != nil {
		return nil, err
	}
	// Let the radio world settle between phases (the operator leaves).
	scn.Run(5 * time.Second)
	test, err := scn.RunLabelledWalk(cfg.Walk)
	if err != nil {
		return nil, err
	}

	b := scn.Building()
	gamma := cfg.SVMGamma
	if gamma == 0 {
		// Grid-searched on held-out walks; wide kernels suit the
		// metre-scale distance features (see EXPERIMENTS.md).
		gamma = 0.03
	}
	sceneSVM, err := classify.TrainSceneSVM(train, svm.TrainConfig{
		C:      cfg.SVMC,
		Kernel: svm.RBF{Gamma: gamma},
		Seed:   cfg.Scenario.Seed,
	})
	if err != nil {
		return nil, err
	}
	linearSVM, err := classify.TrainSceneSVM(train, svm.TrainConfig{
		C:      cfg.SVMC,
		Kernel: svm.Linear{},
		Seed:   cfg.Scenario.Seed,
	})
	if err != nil {
		return nil, err
	}
	sceneKNN, err := classify.TrainSceneKNN(train, cfg.KNNK)
	if err != nil {
		return nil, err
	}
	prox := classify.NewProximity(b, 0)

	labels := b.ClassLabels()
	res := &TrialResult{
		TrainSamples: train.Len(),
		TestSamples:  test.Len(),
		Train:        train,
		Test:         test,
	}
	if res.SVM, err = classify.Evaluate(sceneSVM, test, labels, building.Outside); err != nil {
		return nil, err
	}
	if res.Proximity, err = classify.Evaluate(prox, test, labels, building.Outside); err != nil {
		return nil, err
	}
	if res.KNN, err = classify.Evaluate(sceneKNN, test, labels, building.Outside); err != nil {
		return nil, err
	}
	if res.LinearSVM, err = classify.Evaluate(linearSVM, test, labels, building.Outside); err != nil {
		return nil, err
	}
	return res, nil
}
