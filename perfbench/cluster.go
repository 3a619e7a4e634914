package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/genie"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/nltemplate"
	"repro/internal/serve"
	"repro/internal/thingpedia"
)

// hotSkill names the built-in Thingpedia library in the fleet's library
// directory. The library has no DSL file of its own (it is compiled into
// package thingpedia), so the directory holds a small stand-in file under
// this name and the training function substitutes thingpedia.Builtin().
const hotSkill = "thingpedia"

// hotStandIn is the stand-in library file for hotSkill: a valid one-function
// library, so the fleet's file loader and checksum accept it.
const hotStandIn = `// Stand-in for the built-in Thingpedia library, which the benchmark's
// training function substitutes for this file's contents.
class @bench.builtin {
  action noop() "do nothing";
}
`

// exampleSkillDir holds the two small skill libraries that take the cold
// share of the traffic, relative to the repository root.
const exampleSkillDir = "examples/fleet/skills"

// recipeSeed is the fixed seed of every data build and training run in a
// set-up. The served model is part of the system under test, not an input,
// so it is the same for every workload seed; the seed varies the traffic.
const recipeSeed = 1

// recipe is a capped training run at the unit preset.
type recipe struct {
	MaxSteps int
	LMSteps  int
}

// modelConfig applies the recipe's caps to the unit preset.
func (r recipe) modelConfig() model.Config {
	cfg := genie.Unit.Model
	cfg.MaxSteps = r.MaxSteps
	cfg.LMSteps = r.LMSteps
	return cfg
}

// skillState is everything a set-up learned about one skill: the library it
// trained on, the data build, the parser backend 1 serves, the held-out
// request pool, and how long its training took.
type skillState struct {
	name   string
	lib    *thingpedia.Library
	data   *genie.Data
	parser *model.Parser
	recipe recipe
	pool   []dataset.Example // held-out sentences with gold programs
	trainS float64           // genie.Data.Train wall time
}

// cluster is one set-up of the serving stack: two fleet backends holding
// every skill (replication 2), each behind its own loopback HTTP server,
// and a gateway in front of both.
type cluster struct {
	dir    string
	tracer *tracer // nil when untraced

	mu     sync.Mutex
	skills map[string]*skillState

	regs     []*fleet.Registry
	servers  []*http.Server
	backends []string // backend base URLs
	gw       *gateway.Gateway
	gwServer *http.Server
	gwURL    string
	serveWG  sync.WaitGroup
}

// setupCluster builds, trains and starts one serving stack under dir, which
// must not exist yet (so the snapshot cache starts empty). It returns once
// both backends serve every skill and the gateway's first probe found them
// healthy.
func setupCluster(dir string, tr *tracer) (*cluster, error) {
	c := &cluster{dir: dir, tracer: tr, skills: map[string]*skillState{}}
	if err := c.start(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) start() error {
	libDir := filepath.Join(c.dir, "skills")
	if err := os.MkdirAll(libDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(libDir, hotSkill+thingpedia.LibraryExt), []byte(hotStandIn), 0o644); err != nil {
		return err
	}
	ents, err := thingpedia.ScanLibraryDir(exampleSkillDir)
	if err != nil {
		return fmt.Errorf("example skills: %w", err)
	}
	if len(ents) != 2 {
		return fmt.Errorf("example skills: want 2 libraries in %s, found %d", exampleSkillDir, len(ents))
	}
	for _, e := range ents {
		src, err := os.ReadFile(e.Path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(libDir, filepath.Base(e.Path)), src, 0o644); err != nil {
			return err
		}
	}
	store := filepath.Join(c.dir, "snapshots")
	cfg := fleet.Config{
		LibDir:       libDir,
		Serve:        serveOptions(),
		Train:        c.train,
		Cache:        serve.NewCacheWith(serve.CacheOptions{Store: durable.Open(store, durable.Options{})}),
		TrainWorkers: 2,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if i == 1 {
			// The second backend shares the snapshot volume: it must load
			// every skill from the first backend's snapshots, not retrain.
			cfg.Cache = serve.NewCacheWith(serve.CacheOptions{Store: durable.Open(store, durable.Options{})})
			cfg.Train = func(name string, _ *thingpedia.Library) (*model.Parser, error) {
				return nil, fmt.Errorf("backend 2 missed the snapshot cache for %s", name)
			}
		}
		reg, err := fleet.New(cfg)
		if err != nil {
			return err
		}
		c.regs = append(c.regs, reg)
		if err := reg.WaitReady(ctx); err != nil {
			return err
		}
		for _, s := range reg.Skills() {
			if s.Status != fleet.StatusReady {
				return fmt.Errorf("backend %d: skill %s is %s: %s", i+1, s.Name, s.Status, s.Error)
			}
		}
		srv := fleet.NewServer(reg)
		url, hs, err := c.listen(c.tracer.wrapFleet(srv.Handler()))
		if err != nil {
			return err
		}
		c.servers = append(c.servers, hs)
		c.backends = append(c.backends, url)
	}
	c.gw = gateway.New(c.backends, gateway.Options{
		Replication: 2,
		Seed:        recipeSeed,
		Transport:   c.tracer.wrapTransport(http.DefaultTransport),
	})
	skills := c.gw.SkillsSnapshot()
	if len(skills) != len(c.skills) {
		return fmt.Errorf("gateway sees %d skills, set-up trained %d", len(skills), len(c.skills))
	}
	for _, s := range skills {
		if s.Replicas != 2 {
			return fmt.Errorf("gateway: skill %s has %d live replicas, want 2", s.Name, s.Replicas)
		}
	}
	url, hs, err := c.listen(c.tracer.wrapGateway(c.gw.Handler()))
	if err != nil {
		return err
	}
	c.gwServer, c.gwURL = hs, url
	return nil
}

// listen serves h on a fresh loopback port.
func (c *cluster) listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.serveWG.Add(1)
	go func() {
		defer c.serveWG.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: http server: %v\n", err)
		}
	}()
	return "http://" + ln.Addr().String(), hs, nil
}

// train is the fleet's TrainFunc: the genie pipeline (data build, capped
// training and grammar mask) at the skill's recipe. It records what it built for the request pools and
// the correctness gate.
func (c *cluster) train(name string, fileLib *thingpedia.Library) (*model.Parser, error) {
	lib, rc := fileLib, coldRecipe
	if name == hotSkill {
		lib, rc = thingpedia.Builtin(), hotRecipe
	}
	d := genie.BuildData(lib, nltemplate.DefaultOptions, genie.Unit, recipeSeed)
	t1 := time.Now()
	tp := d.Train(genie.TrainOptions{
		Strategy: genie.StrategyGenie, Topt: genie.CanonicalTargets,
		Model: rc.modelConfig(), Seed: recipeSeed,
	})
	t2 := time.Now()
	p := tp.Parser
	if err := p.SetGrammar(grammar.NewSpec(lib.Functions())); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	st := &skillState{
		name: name, lib: lib, data: d, parser: p, recipe: rc,
		pool:   heldOut(d),
		trainS: t2.Sub(t1).Seconds(),
	}
	if len(st.pool) == 0 {
		return nil, fmt.Errorf("%s: empty held-out split", name)
	}
	c.mu.Lock()
	c.skills[name] = st
	c.mu.Unlock()
	return p, nil
}

// heldOut is a skill's held-out split: the realistic validation set and the
// paraphrase test set, neither of which training saw.
func heldOut(d *genie.Data) []dataset.Example {
	out := append([]dataset.Example(nil), d.Validation...)
	return append(out, d.ParaTest...)
}

// skillNames lists the trained skills, hot skill first, then by name.
func (c *cluster) skillNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.skills))
	for n := range c.skills {
		if n != hotSkill {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append([]string{hotSkill}, names...)
}

// skill returns one skill's state.
func (c *cluster) skill(name string) *skillState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skills[name]
}

// close stops the gateway, the HTTP servers and both registries, waits for
// every server goroutine, and removes the set-up directory.
func (c *cluster) close() {
	if c.gwServer != nil {
		c.gwServer.Close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, hs := range c.servers {
		hs.Close()
	}
	for _, reg := range c.regs {
		reg.Close()
	}
	c.serveWG.Wait()
	os.RemoveAll(c.dir)
}
