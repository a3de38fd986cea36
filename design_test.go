package keybin2_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The design rules: decisions the code states once, each held here as one
// row over the parsed source tree (DESIGN.md "Design rules"). A row names
// the DESIGN.md section that explains the decision and the change that set
// it, checks the tree, and carries overlays: Go (or workflow) source that
// breaks the rule, laid over the tree in memory. Every row must hold on
// the tree and report every one of its overlays, so a check that can no
// longer see its target fails here rather than passing vacuously. A change
// that moves code a rule names moves the rule in the same diff.
var designRules = []designRule{
	{
		name: "one daemon chassis", section: "Daemon chassis (`internal/daemon`)", pr: "16",
		check: func(tr *tree) []string {
			var bad []string
			mounts := tr.importers("net/http/pprof", nonTest)
			if !slices.Equal(mounts, []string{"internal/daemon/daemon.go"}) {
				bad = append(bad, fmt.Sprintf("net/http/pprof is imported by internal/daemon/daemon.go alone, not %v", mounts))
			}
			for _, s := range tr.find(nonTest, selector("http", "StatusMethodNotAllowed")) {
				if !strings.HasPrefix(s.path, "internal/daemon/") && !strings.HasPrefix(s.path, "internal/obs/") {
					bad = append(bad, s.String()+": 405 is answered by daemon.GET / daemon.POST (and internal/obs) only")
				}
			}
			return bad
		},
		breaks: []overlay{
			{"internal/shardcluster/debug.go", "package shardcluster\n\nimport _ \"net/http/pprof\"\n"},
			{"internal/server/edge.go", "func refuse(w http.ResponseWriter) { w.WriteHeader(http.StatusMethodNotAllowed) }"},
		},
	},
	{
		name: "one consolidation fold", section: "Consolidation fold (`internal/core/fold.go`)", pr: "18",
		check: func(tr *tree) []string {
			var bad []string
			var combiners []string
			for _, f := range tr.goFiles(inDir("internal/core")) {
				for _, d := range f.ast.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "combine") {
						combiners = append(combiners, fd.Name.Name)
					}
				}
			}
			if !slices.Equal(combiners, []string{"combineFold"}) {
				bad = append(bad, fmt.Sprintf("internal/core has one func combine… (combineFold), not %v", combiners))
			}
			for _, s := range tr.find(inDir("internal/core"), ident("CombineEncoded")) {
				bad = append(bad, s.String()+": internal/core consolidates through combineFold, not histogram.CombineEncoded")
			}
			return bad
		},
		breaks: []overlay{
			{"internal/core/stream.go", "func combineSketches(a, b []byte) ([]byte, error) { return a, nil }"},
			{"internal/core/shardmerge.go", "var _ = histogram.CombineEncoded"},
		},
	},
	{
		name: "one fleet harness", section: "Chaos scenarios (`internal/chaos`)", pr: "20",
		check: func(tr *tree) []string {
			var bad []string
			spawns := tr.find(both(inDir("internal/chaos"), nonTest), call("exec", "Command", "CommandContext"))
			if !slices.Equal(paths(spawns), []string{"internal/chaos/fleet.go"}) {
				bad = append(bad, fmt.Sprintf("exec.Command belongs to internal/chaos/fleet.go alone, found in %v", paths(spawns)))
			}
			for _, l := range tr.ciLines() {
				if curlWord.MatchString(l.text) {
					bad = append(bad, l.String()+": CI drives fleets through keybin2load -scenario and Go tests, not curl")
				}
				if python3Word.MatchString(l.text) && l.job != "bench-guard" {
					bad = append(bad, l.String()+": python3 runs in bench-guard only")
				}
			}
			return bad
		},
		breaks: []overlay{
			{"internal/chaos/probe.go", "package chaos\n\nimport \"os/exec\"\n\nfunc probe() error { return exec.Command(\"true\").Run() }\n"},
			{ciPath, "  smoke:\n    runs-on: ubuntu-latest\n    steps:\n      - run: curl -fsS http://127.0.0.1:7421/healthz\n"},
			{ciPath, "  smoke:\n    runs-on: ubuntu-latest\n    steps:\n      - run: python3 -c 'print(1)'\n"},
		},
	},
	{
		name: "one selection step", section: "Ingest hot path", pr: "27, 39",
		check: func(tr *tree) []string {
			var bad []string
			for _, c := range []struct {
				what  string
				files func(string) bool
				match func(ast.Node) bool
			}{
				{"quality.SelectBest", nonTest, call("quality", "SelectBest")},
				{"trialModel", both(inDir("internal/core"), nonTest), call("", "trialModel")},
			} {
				sites := tr.find(c.files, c.match)
				if len(sites) == 0 {
					bad = append(bad, c.what+" has no caller: the rule lost its target")
				}
				for _, s := range sites {
					if s.in != "selectModel" {
						bad = append(bad, s.String()+": "+c.what+" is called from selectModel (fit.go) alone")
					}
				}
			}
			fitDriver := func(p string) bool {
				return p == "internal/core/fit.go" || p == "internal/core/distributed.go"
			}
			for _, s := range tr.find(fitDriver, goroutines) {
				bad = append(bad, s.String()+": every fit pass is a forBlocks call bounded by Config.Workers")
			}
			return bad
		},
		breaks: []overlay{
			{"internal/core/stream.go", "func pickAgain(as []quality.Assessment) int { return quality.SelectBest(as) }"},
			{"internal/core/distributed.go", "func assessAgain(cfg Config) { trialModel(nil, nil, nil, nil, cfg, 0) }"},
			{"internal/core/fit.go", "func spawn() { go func() {}() }"},
			{"internal/core/distributed.go", "var rankWait sync.WaitGroup"},
		},
	},
	{
		name: "serial batch apply", section: "Ingest hot path", pr: "28",
		check: func(tr *tree) []string {
			var bad []string
			batch := func(p string) bool { return p == "internal/core/stream_batch.go" }
			for _, s := range tr.find(batch, either(goroutines, ident("PoolUtilization"))) {
				bad = append(bad, s.String()+": Stream.IngestBatch is one serial pass: no goroutines, WaitGroups or pool gauges")
			}
			wal := func(p string) bool { return p == "internal/server/wal.go" }
			for _, s := range tr.find(wal, call("", "ReadFile")) {
				bad = append(bad, s.String()+": WAL truncation subtracts walSegment.size; it reads no segment file")
			}
			return bad
		},
		breaks: []overlay{
			{"internal/core/stream_batch.go", "func fanOut() { go func() {}() }"},
			{"internal/core/stream_batch.go", "var applyWait sync.WaitGroup"},
			{"internal/core/stream_batch.go", "func (s *Stream) PoolUtilization() float64 { return 0 }"},
			{"internal/server/wal.go", "func (w *WAL) reread(p string) ([]byte, error) { return w.cfg.FS.ReadFile(p) }"},
		},
	},
	{
		name: "one WAL reader", section: "Replication (WAL-shipping follower replicas)", pr: "29",
		check: func(tr *tree) []string {
			var bad []string
			for _, s := range tr.find(inDir("internal/server"), method("WAL", "Replay")) {
				bad = append(bad, s.String()+": replay reads through CursorAt/ReadTail like a follower; *WAL has no Replay")
			}
			walFiles := func(p string) bool { return inDir("internal/server")(p) && strings.HasPrefix(path.Base(p), "wal") }
			sums := tr.find(walFiles, call("crc32", "Checksum"))
			var in []string
			for _, s := range sums {
				in = append(in, s.in)
				if s.in != "(*WAL).Append" && s.in != "parseWALRecord" {
					bad = append(bad, s.String()+": a stored record is checksummed by (*WAL).Append and parseWALRecord alone")
				}
			}
			if !slices.Contains(in, "(*WAL).Append") || !slices.Contains(in, "parseWALRecord") {
				bad = append(bad, fmt.Sprintf("crc32.Checksum is called from %v: the rule lost its target", in))
			}
			return bad
		},
		breaks: []overlay{
			{"internal/server/wal_tail.go", "func (w *WAL) Replay() error { return nil }"},
			{"internal/server/wal_open.go", "func verify(b []byte, sum uint32) bool { return crc32.Checksum(b, walCRCTable) == sum }"},
		},
	},
	{
		name: "one count table", section: "Ingest hot path", pr: "30, 39, multi-word keys",
		check: func(tr *tree) []string {
			var bad []string
			core := both(inDir("internal/core"), nonTest)
			keyedMap := func(n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				if !ok {
					return false
				}
				k, ok := m.Key.(*ast.Ident)
				return ok && (k.Name == "uint64" || k.Name == "string")
			}
			for _, s := range tr.find(core, keyedMap) {
				bad = append(bad, s.String()+": a key → mass or key → label value is a flatTable of W-word keys, not a map[uint64]… or map[string]…")
			}
			for _, s := range tr.find(core, either(selector("keys", "Counter"), selector("keys", "NewCounter"))) {
				bad = append(bad, s.String()+": sketch masses live in a flatTable at every width, not a keys.Counter")
			}
			tables := tr.find(core, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				return ok && ts.Name.Name == "flatTable"
			})
			if len(tables) != 1 {
				bad = append(bad, fmt.Sprintf("internal/core declares flatTable %d times, not once: the rule lost its target", len(tables)))
			}
			for _, s := range tr.find(both(inDir("internal/partition"), nonTest), call("stats", "MovingAverage")) {
				bad = append(bad, s.String()+": the partitioner smooths with stats.MovingAverageCounts; MovingAverage is its test reference")
			}
			return bad
		},
		breaks: []overlay{
			{"internal/core/stream_sketch.go", "type sketchMap map[uint64]float64"},
			{"internal/core/tuplekey.go", "func recount() map[uint64]uint64 { return nil }"},
			{"internal/core/model.go", "type labelMap map[uint64]int"},
			{"internal/core/fold.go", "func wideCounts() map[string]uint64 { return nil }"},
			{"internal/core/stream.go", "var sketchFallback *keys.Counter"},
			{"internal/core/stream_sketch.go", "var newSketch = keys.NewCounter"},
			{"internal/partition/partition.go", "func smooth(c []float64) []float64 { return stats.MovingAverage(c, 3) }"},
		},
	},
	{
		name: "one block store", section: "Projection stage (batch fit)", pr: "bins in place",
		check: func(tr *tree) []string {
			var bad []string
			pools := tr.find(both(inDir("internal/core"), nonTest), selector("sync", "Pool"))
			for _, s := range pools {
				if s.in != "blockPool" {
					bad = append(bad, s.String()+": internal/core pools the fit's float blocks alone (blockPool); a block's bins go over its own floats")
				}
			}
			if len(pools) != 1 {
				bad = append(bad, fmt.Sprintf("internal/core declares %d sync.Pools, not one (blockPool)", len(pools)))
			}
			return bad
		},
		breaks: []overlay{
			{"internal/core/fit.go", "var binPool sync.Pool"},
			{"internal/core/stream_batch.go", "type scratchPool struct{ bins sync.Pool }"},
		},
	},
	{
		name: "one wire cursor", section: "Wire formats (`internal/wire`)", pr: "wire cursor",
		check: func(tr *tree) []string {
			var bad []string
			outside := func(p string) bool { return nonTest(p) && !strings.HasPrefix(p, "internal/wire/") }
			for _, s := range tr.find(outside, endianRead) {
				if _, ok := wireExceptions[s.path+" "+s.in]; !ok {
					bad = append(bad, s.String()+": a binary format is read through internal/wire's Reader, the one place bounds are checked")
				}
			}
			if len(tr.find(inDir("internal/wire"), endianRead)) == 0 {
				bad = append(bad, "internal/wire reads no fixed-width value: the rule lost its target")
			}
			return bad
		},
		breaks: []overlay{
			{"internal/histogram/set.go", "func peekDims(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }"},
			{"internal/server/walmeta.go", "func peekCovered(meta []byte) uint64 { return binary.LittleEndian.Uint64(meta[1:]) }"},
		},
	},
	{
		name: "one probe round", section: "Failover (supervisor election + epoch fencing)", pr: "failover.Prober",
		check: func(tr *tree) []string {
			var bad []string
			if im := tr.importers("keybin2/internal/xrand", both(inDir("internal/shardcluster"), nonTest)); len(im) > 0 {
				bad = append(bad, fmt.Sprintf("%v import internal/xrand: the router probes through failover.Prober, which owns the jitter stream", im))
			}
			controlPlanes := func(p string) bool {
				return nonTest(p) && (inDir("internal/shardcluster")(p) || inDir("internal/failover")(p))
			}
			draws := tr.find(controlPlanes, call("", "Float64"))
			if len(draws) == 0 {
				bad = append(bad, "no Float64 draw in internal/failover: the rule lost its target")
			}
			for _, s := range draws {
				if s.in != "(*Prober).Round" {
					bad = append(bad, s.String()+": a probe delay is drawn by (*Prober).Round alone")
				}
			}
			return bad
		},
		breaks: []overlay{
			{"internal/shardcluster/router.go", "import \"keybin2/internal/xrand\""},
			{"internal/failover/supervisor.go", "func (s *Supervisor) delay() time.Duration { return time.Duration(s.prober.rng.Float64() * 0.2 * float64(s.cfg.ProbeEvery)) }"},
		},
	},
}

func TestDesignRules(t *testing.T) {
	tr := loadTree(t)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range designRules {
		t.Run(strings.ReplaceAll(r.name, " ", "_"), func(t *testing.T) {
			if !strings.Contains(string(design), "\n## "+r.section+"\n") {
				t.Errorf("DESIGN.md has no section %q", r.section)
			}
			if r.pr == "" || len(r.breaks) == 0 {
				t.Fatalf("rule %q names no PR or has no overlay", r.name)
			}
			for _, b := range r.check(tr) {
				t.Error(b)
			}
			for _, o := range r.breaks {
				broken, err := tr.with(o)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.check(broken)) == 0 {
					t.Errorf("overlay on %s went unreported:\n%s", o.path, o.src)
				}
			}
		})
	}
}

type designRule struct {
	name    string
	section string // the DESIGN.md "## " heading that explains the rule
	pr      string // the change (or changes) that set it
	// check returns one line per place the tree breaks the rule.
	check func(*tree) []string
	// breaks are overlays that each break the rule; check must report
	// every one of them.
	breaks []overlay
}

// overlay is source laid over one file of the tree: appended to a file that
// exists (an import goes after its package clause), or a whole new file.
type overlay struct {
	path, src string
}

const ciPath = ".github/workflows/ci.yml"

var (
	curlWord    = regexp.MustCompile(`\bcurl\b`)
	python3Word = regexp.MustCompile(`\bpython3\b`)
	ciJob       = regexp.MustCompile(`^  ([A-Za-z0-9_-]+):\s*$`)
)

// tree is the repository's Go files, parsed, plus the CI workflow's text.
type tree struct {
	fset  *token.FileSet
	files map[string]goFile // by slash path relative to the repo root
	ci    string
}

type goFile struct {
	src string
	ast *ast.File
}

func loadTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{fset: token.NewFileSet(), files: map[string]goFile{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return tr.parse(filepath.ToSlash(p), string(src))
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(ciPath)
	if err != nil {
		t.Fatal(err)
	}
	tr.ci = string(ci)
	return tr
}

func (tr *tree) parse(p, src string) error {
	f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	tr.files[p] = goFile{src: src, ast: f}
	return nil
}

// with returns a copy of the tree with o laid over it; the files on disk
// are not touched.
func (tr *tree) with(o overlay) (*tree, error) {
	out := &tree{fset: tr.fset, files: make(map[string]goFile, len(tr.files)+1), ci: tr.ci}
	for p, f := range tr.files {
		out.files[p] = f
	}
	if o.path == ciPath {
		out.ci += o.src
		return out, nil
	}
	src := o.src
	if f, ok := tr.files[o.path]; ok {
		src = f.src + "\n" + o.src + "\n"
		if strings.HasPrefix(o.src, "import ") {
			at := tr.fset.Position(f.ast.Name.End()).Offset
			src = f.src[:at] + "\n\n" + o.src + "\n" + f.src[at:]
		}
	}
	return out, out.parse(o.path, src)
}

// goFiles returns the files whose path keep accepts, in path order.
func (tr *tree) goFiles(keep func(string) bool) []goFile {
	var ps []string
	for p := range tr.files {
		if keep(p) {
			ps = append(ps, p)
		}
	}
	slices.Sort(ps)
	out := make([]goFile, len(ps))
	for i, p := range ps {
		out[i] = tr.files[p]
	}
	return out
}

// importers lists the files keep accepts that import pkg.
func (tr *tree) importers(pkg string, keep func(string) bool) []string {
	var out []string
	for _, f := range tr.goFiles(keep) {
		for _, im := range f.ast.Imports {
			if im.Path.Value == `"`+pkg+`"` {
				out = append(out, tr.fset.Position(f.ast.Package).Filename)
			}
		}
	}
	return out
}

// site is one node a rule matched: where, and in which declaration —
// "selectModel", "(*WAL).Append", or a struct field such as "Model.labelOf".
type site struct {
	path string
	line int
	in   string
}

func (s site) String() string { return fmt.Sprintf("%s:%d (%s)", s.path, s.line, s.in) }

func paths(sites []site) []string {
	var out []string
	for _, s := range sites {
		if !slices.Contains(out, s.path) {
			out = append(out, s.path)
		}
	}
	return out
}

// find returns every node match accepts in the files keep accepts.
func (tr *tree) find(keep func(string) bool, match func(ast.Node) bool) []site {
	var out []site
	for _, f := range tr.goFiles(keep) {
		var stack []ast.Node
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if match(n) {
				pos := tr.fset.Position(n.Pos())
				out = append(out, site{path: pos.Filename, line: pos.Line, in: declOf(stack)})
			}
			return true
		})
	}
	return out
}

// declOf names the top-level declaration at the bottom of an AST path.
func declOf(stack []ast.Node) string {
	for i, n := range stack {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				return d.Name.Name
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				return "(*" + typeName(star.X) + ")." + d.Name.Name
			}
			return typeName(recv) + "." + d.Name.Name
		case *ast.TypeSpec:
			for _, m := range stack[i:] {
				if f, ok := m.(*ast.Field); ok && len(f.Names) > 0 {
					return d.Name.Name + "." + f.Names[0].Name
				}
			}
			return d.Name.Name
		case *ast.ValueSpec:
			return d.Names[0].Name
		}
	}
	return "file scope"
}

func typeName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// ciLine is one line of the CI workflow and the job it belongs to.
type ciLine struct {
	n         int
	job, text string
}

func (l ciLine) String() string { return fmt.Sprintf("%s:%d (job %s)", ciPath, l.n, l.job) }

func (tr *tree) ciLines() []ciLine {
	var out []ciLine
	job := ""
	for i, text := range strings.Split(tr.ci, "\n") {
		if m := ciJob.FindStringSubmatch(text); m != nil {
			job = m[1]
		}
		out = append(out, ciLine{n: i + 1, job: job, text: text})
	}
	return out
}

// wireExceptions are the fixed-width reads outside internal/wire that
// parse no format, by file and enclosing declaration, with the reason.
var wireExceptions = map[string]string{
	"internal/obs/tracectx.go init": "seeds the span-ID stream from 8 random bytes",
}

// File filters.

func nonTest(p string) bool { return !strings.HasSuffix(p, "_test.go") }

// inDir accepts the files of one package directory, tests included.
func inDir(dir string) func(string) bool {
	return func(p string) bool { return path.Dir(p) == dir }
}

func both(a, b func(string) bool) func(string) bool {
	return func(p string) bool { return a(p) && b(p) }
}

// Node matchers.

// selector matches pkg.name.
func selector(pkg, name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		if !ok || s.Sel.Name != name {
			return false
		}
		x, ok := s.X.(*ast.Ident)
		return ok && x.Name == pkg
	}
}

// ident matches name used anywhere: a bare identifier, or the selected name
// of x.name.
func ident(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == name
	}
}

// call matches a call of pkg.name for any of names; pkg "" matches a bare
// name(…) and a method call x.name(…) alike.
func call(pkg string, names ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fn := c.Fun.(type) {
		case *ast.Ident:
			return pkg == "" && slices.Contains(names, fn.Name)
		case *ast.SelectorExpr:
			if !slices.Contains(names, fn.Sel.Name) {
				return false
			}
			x, ok := fn.X.(*ast.Ident)
			return pkg == "" || ok && x.Name == pkg
		}
		return false
	}
}

// method matches the declaration of the method name on T or *T.
func method(typ, name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != name || len(fd.Recv.List) == 0 {
			return false
		}
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		return typeName(recv) == typ
	}
}

// endianRead matches a call of binary.LittleEndian or binary.BigEndian
// .Uint16, .Uint32 or .Uint64: a fixed-width read out of a byte slice.
func endianRead(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || !slices.Contains([]string{"Uint16", "Uint32", "Uint64"}, fn.Sel.Name) {
		return false
	}
	return selector("binary", "LittleEndian")(fn.X) || selector("binary", "BigEndian")(fn.X)
}

// goroutines matches a go statement and any use of sync.WaitGroup.
func goroutines(n ast.Node) bool {
	_, isGo := n.(*ast.GoStmt)
	return isGo || selector("sync", "WaitGroup")(n)
}

func either(a, b func(ast.Node) bool) func(ast.Node) bool {
	return func(n ast.Node) bool { return a(n) || b(n) }
}
