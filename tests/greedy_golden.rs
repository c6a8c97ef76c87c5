//! Golden pins of the greedy selection: for every heuristic stack of §6
//! (`FT`, `FT+M`, `FT+M+CI`, `FT+M+DS`, `FT+M+CI+DS`) on small erdos,
//! preferential and WSN graphs, the committed edge sequence, the bits of
//! the final flow and every step's `(edge, gain bits, pool)` are pinned to
//! the values the full re-probe engine produced.
//!
//! Any change to how candidates are scored or ordered, or to how winners
//! are committed, must leave these unchanged. Debug asserts are off in
//! release builds, so CI also runs this file with `--release`: with
//! `tests/differential_incremental.rs` it is the check of the shipped
//! build. At least one pinned run commits a Case IIIb or IV edge, so the
//! structural commit (a journalled `apply` whose component estimate comes
//! from the memo under `M`) is covered too.
//!
//! The session's evaluated flow (`SolveRun::flow`, the shared evaluator's
//! estimate of the final selection) is pinned too, for one `FT+M+CI+DS`
//! query per graph.
//!
//! The work ledger is pinned as well: all 13 `SelectionMetrics` counters
//! of every pinned run (probes, memo hits, samples, commits by case, ...).
//! Debug builds revalidate the engine after every commit, release builds
//! do not, so in a release build these pins are the check that a change
//! to how probes are scored or winners committed leaves the memo hits and
//! the sampling work as they were.
//!
//! To print the table for new pins:
//! `cargo test --release --test greedy_golden -- --ignored --nocapture`.

use flowmax::core::{
    greedy_select_observed, Algorithm, GreedyConfig, SelectionMetrics, SelectionOutcome,
    SelectionStep, Session,
};
use flowmax::datasets::{suggest_query, ErdosConfig, PreferentialConfig, WsnConfig};
use flowmax::graph::ProbabilisticGraph;

const BUDGET: usize = 30;
const SAMPLES: u32 = 200;
const SEED: u64 = 97;

const GRAPHS: [&str; 3] = ["erdos", "preferential", "wsn"];
const VARIANTS: [&str; 5] = ["FT", "FT+M", "FT+M+CI", "FT+M+DS", "FT+M+CI+DS"];

fn graph(name: &str) -> ProbabilisticGraph {
    match name {
        "erdos" => ErdosConfig::paper(150, 5.0).generate(21),
        "preferential" => PreferentialConfig::paper_scaled(150).generate(22),
        "wsn" => WsnConfig::paper(150, 0.15).generate(23).graph,
        other => panic!("unknown graph {other}"),
    }
}

fn config(variant: &str) -> GreedyConfig {
    let mut cfg = GreedyConfig::ft(BUDGET, SEED);
    cfg.samples = SAMPLES;
    match variant {
        "FT" => cfg,
        "FT+M" => cfg.with_memo(),
        "FT+M+CI" => cfg.with_memo().with_ci(),
        "FT+M+DS" => cfg.with_memo().with_ds(),
        "FT+M+CI+DS" => cfg.with_memo().with_ci().with_ds(),
        other => panic!("unknown variant {other}"),
    }
}

/// One pinned run, rendered as text so a mismatch prints a readable diff.
struct Run {
    outcome: SelectionOutcome,
    /// `edge:gain-bits:pool` per step, space separated.
    steps: String,
}

fn run(graph_name: &str, variant: &str) -> Run {
    let g = graph(graph_name);
    let q = suggest_query(&g);
    let mut steps: Vec<String> = Vec::new();
    let mut observer = |s: &SelectionStep| {
        steps.push(format!("{}:{:016x}:{}", s.edge.0, s.gain.to_bits(), s.pool));
    };
    let outcome = greedy_select_observed(&g, q, &config(variant), &mut observer);
    Run {
        outcome,
        steps: steps.join(" "),
    }
}

/// `(graph, variant, final flow bits, steps)`.
type Pin = (&'static str, &'static str, u64, &'static str);

const PINS: &[Pin] = &[
    (
        "erdos",
        "FT",
        0x40550d2588602709,
        "203:401e29a2548b8ed8:13 299:401977c6b7c05c8e:16 154:401215a44e2b2a66:18 325:4010555c1fb08af4:18 123:4012a1809c0bc918:27 126:400cf71261e62888:28 121:400ad2efe681c108:31 135:4005e3b1bbafebe0:32 5:40054eb8c22bf840:40 351:4003a01f1476d8f0:46 244:401df8cb41e91be8:48 49:40043c1af5c38830:47 343:400357393a381450:49 292:40069e50335a2b50:51 282:4005d26d4f70ad60:53 120:400575baa2fce230:55 182:3ffedaf362ea2180:57 248:4003f8ca39c7d180:63 101:4003637f28b534a0:71 291:4010efac988201b0:76 169:4006123b8a75b140:79 258:3ffe9eeabc61ef80:81 66:4001349bd07e9200:82 298:3ffd7a45e17de500:81 201:3ffe6d7c7b2baf00:83 217:3fd7c644079e6400:87 57:4005ec99d3483980:86 81:3ffd28d6b938fbc0:85 310:c01335cf743dc520:86 45:bfd004564bfa0a00:85",
    ),
    (
        "erdos",
        "FT+M",
        0x40580d27a310418c,
        "203:401e29a2548b8ed8:13 299:401977c6b7c05c8e:16 154:401215a44e2b2a66:18 325:4010555c1fb08af4:18 123:4012a1809c0bc918:27 126:400cf71261e62888:28 121:400ad2efe681c108:31 135:4005e3b1bbafebe0:32 5:40054eb8c22bf840:40 351:4003a01f1476d8f0:46 244:4013ab3cddcca6d8:48 57:4015c2ba46ba69c8:47 49:4004861b585c44b0:46 343:400380d4995d1f40:48 292:4006cef8ac411ca0:50 282:4006015f2b8949b0:52 120:4005a3e5143917b0:54 182:40005784b27de620:56 248:400527c5248d7f20:62 101:400489a13e1546e0:70 291:4011f09a61123e80:75 169:4007610fa96b99a0:78 66:400394d2bd9053e0:80 258:40054222d2ea7660:79 298:3ffdb9afe13c4380:80 201:3ffeaef1b1fcb900:82 81:3ffceb25587c3700:86 124:3ffcbe9b6c8ec180:87 55:3ffb8b2904a60680:91 229:3ffac91ce8f65280:94",
    ),
    (
        "erdos",
        "FT+M+CI",
        0x405827ad111314c6,
        "203:401e29a2548b8ed8:13 299:401977c6b7c05c8e:16 154:401215a44e2b2a66:18 325:4010555c1fb08af4:18 123:4012a1809c0bc918:27 126:400cf71261e62888:28 121:400ad2efe681c108:31 135:4005e3b1bbafebe0:32 5:40054eb8c22bf840:40 351:4003a01f1476d8f0:46 244:40212fac1b24cdb4:48 49:40046a5b3362fe00:47 343:4002b0cbbda3e8a0:49 292:4005dbae4fbe6610:51 282:400516a5df0e3bf0:53 120:4004bd10de0c0c20:55 57:40041de8def60a00:57 182:400012096e2f46e0:56 248:4004cdd2a6dacf80:62 101:4004324f1fbcc180:70 291:4011a453c9876c60:75 169:4006fda8b03a98c0:78 66:40014bc5eea30540:80 258:4004d7396aa90c80:79 298:3fff284cafc0d540:80 201:400014afab729dc0:82 81:3ffe4fcecfbf8880:86 124:3ffba375e05b6580:87 229:3ffac91ce8f65280:91 215:4001d39b30a04520:95",
    ),
    (
        "erdos",
        "FT+M+DS",
        0x4057ecba4b96ffac,
        "203:401e29a2548b8ed8:13 299:401977c6b7c05c8e:16 154:401215a44e2b2a66:18 325:4010555c1fb08af4:18 123:4012a1809c0bc918:27 126:400cf71261e62888:28 121:400ad2efe681c108:31 135:4005e3b1bbafebe0:31 5:40054eb8c22bf840:39 351:4003a01f1476d8f0:45 244:4013ab3cddcca6d8:47 49:400339199cacf4a0:46 343:40025d94ff59d2c0:48 57:4016fadaf193b810:51 292:4006cef8ac411ca0:49 282:4006015f2b8949b0:51 120:4005a3e5143917b0:53 182:40005784b27de620:56 248:400527c5248d7f20:61 101:400489a13e1546e0:69 291:4011f09a61123e80:73 169:4007610fa96b99a0:74 258:400037b9012a6360:77 298:3ffdb9afe13c4380:77 66:4005026e50f03ee0:80 201:3ffeaef1b1fcb940:80 81:3ffceb25587c3700:83 124:3ffbdce20afe9900:84 55:3ffb8b2904a606c0:86 229:3ffac91ce8f65280:89",
    ),
    (
        "erdos",
        "FT+M+CI+DS",
        0x40585a10aeb82e90,
        "203:401e29a2548b8ed8:13 299:401977c6b7c05c8e:16 154:401215a44e2b2a66:18 325:4010555c1fb08af4:18 123:4012a1809c0bc918:27 126:400cf71261e62888:28 121:400ad2efe681c108:31 135:4005e3b1bbafebe0:32 5:40054eb8c22bf840:40 351:4003a01f1476d8f0:46 244:4022e5c5cc1276a4:47 49:4004533b14934320:46 343:40036d53c4c3c220:49 292:4006b829b394db80:50 282:4005eb5dcc5dc070:51 120:40058e412f24de90:53 182:40009b2be0ca73e0:55 248:40057f59ac6aa340:62 101:4004dea718430c20:69 291:40123adf1d0bf010:74 169:4007c1d8fa5eaec0:77 258:40007adc8e467c80:79 298:3ffd9bf6315b0740:80 201:3ffe9042c04abc40:81 66:4006ed91b465fca0:86 81:3ffcce3a3323bac0:84 124:3ffc8f4f2391a480:84 229:3ffac91ce8f65280:87 215:4001d39b30a04520:91 55:3ffa5414628fa4c0:91",
    ),
    (
        "preferential",
        "FT",
        0x4064564534724ff4,
        "290:401e4d5a86ad0774:29 9:401e3407b80f0edc:33 359:401de97d8ef3e510:55 350:401bdfca39ddadd0:57 83:401bcf8b699ec498:58 362:401b0b9b6881ca80:63 48:4017c12a471c6910:64 161:4016482dc857f9b8:67 241:401f255d2bdf7cd0:71 215:401430af063e9620:72 360:401352288ab92fd0:75 342:4014cb762e978c00:77 354:40130c5579687470:78 100:401237da397b13c0:79 355:401365540694bcc0:81 25:401152ca476b5ea0:80 41:401134821db23400:95 53:4010db9acf423ba0:98 336:40106b4237e87670:102 78:4010023e8b63ff10:104 258:400e5a63f4e2a0c0:107 7:400d190e9572d7c0:109 221:4012e87945d5f1c0:133 113:40125d85864e0800:134 39:401703948a053aa0:137 293:4015599d046b5500:136 292:400671e35f79c8c0:137 216:40163ea0f7199180:136 111:401d376772ac4fe0:135 291:4019a0034f5200a0:134",
    ),
    (
        "preferential",
        "FT+M",
        0x4064163e91114b91,
        "290:401e4d5a86ad0774:29 9:401e3407b80f0edc:33 359:401de97d8ef3e510:55 350:401bdfca39ddadd0:57 83:401bcf8b699ec498:58 362:401b0b9b6881ca80:63 48:4017c12a471c6910:64 161:4016482dc857f9b8:67 241:401f255d2bdf7cd0:71 215:401430af063e9620:72 360:401352288ab92fd0:75 342:4014cb762e978c00:77 354:40130c5579687470:78 100:401237da397b13c0:79 25:401152ca476b5e80:81 41:401134821db233f0:96 53:4010db9acf423ba0:99 216:4010f5c42ab72650:103 258:40137bdcf094d4c0:102 292:4010e908fc641600:104 355:4010a95e75f56bc0:106 336:40106b4237e87680:105 78:400f6cb3a95282c0:107 210:400dd0c2b4d387c0:110 7:400d190e9572d7c0:114 293:401b1d24055e82a0:137 291:4017c54670511ee0:136 221:401592de112a1280:144 113:4014f45388864ba0:144 257:401279be179a4e00:147",
    ),
    (
        "preferential",
        "FT+M+CI",
        0x406463330eabdc52,
        "290:401e4d5a86ad0774:29 9:401e3407b80f0edc:33 359:401de97d8ef3e510:55 350:401bdfca39ddadd0:57 83:401bcf8b699ec498:58 362:401b0b9b6881ca80:63 48:4017c12a471c6910:64 161:4016482dc857f9b8:67 241:401f255d2bdf7cd0:71 215:401430af063e9620:72 360:401352288ab92fd0:75 342:4014cb762e978c00:77 354:40130c5579687470:78 100:401237da397b13c0:79 25:401152ca476b5e80:81 41:401134821db233f0:96 53:4010db9acf423ba0:99 336:40106b4237e87670:103 258:400e5a63f4e2a100:105 78:400dd8c1dd66ab00:107 7:400d190e9572d7a0:110 221:4012e87945d5f1d0:134 113:40125d85864e07e0:135 111:401569b55cec4600:138 355:4016d3c5963dc240:137 293:4013ab282470efe0:136 257:4011bcfaf07dfa40:137 346:40118ec1b44a9420:137 39:4012d5a6aaccce80:138 292:40225d8abd45f9a0:137",
    ),
    (
        "preferential",
        "FT+M+DS",
        0x4064163e91114b91,
        "290:401e4d5a86ad0774:29 9:401e3407b80f0edc:33 359:401de97d8ef3e510:55 350:401bdfca39ddadd0:57 83:401bcf8b699ec498:58 362:401b0b9b6881ca80:63 48:4017c12a471c6910:64 161:4016482dc857f9b8:67 241:401f255d2bdf7cd0:71 215:401430af063e9620:72 360:401352288ab92fd0:75 342:4014cb762e978c00:77 354:40130c5579687470:78 100:401237da397b13c0:78 25:401152ca476b5e80:80 41:401134821db233f0:94 53:4010db9acf423ba0:97 355:4010a95e75f56bf0:101 216:4010f5c42ab72640:101 258:40137bdcf094d4a0:100 292:4010e908fc641600:103 336:40106b4237e87680:104 78:400f6cb3a95282c0:106 210:400dd0c2b4d387c0:109 7:400d190e9572d7c0:113 293:401b1d24055e82a0:136 291:4017c54670511ee0:133 221:401592de112a1280:141 113:4014f45388864ba0:140 257:401279be179a4e00:141",
    ),
    (
        "preferential",
        "FT+M+CI+DS",
        0x40641dc35b7747ce,
        "290:401e4d5a86ad0774:29 9:401e3407b80f0edc:33 359:401de97d8ef3e510:55 350:401bdfca39ddadd0:57 83:401bcf8b699ec498:58 362:401b0b9b6881ca80:63 48:4017c12a471c6910:64 161:4016482dc857f9b8:67 241:401f255d2bdf7cd0:71 215:401430af063e9620:72 360:401352288ab92fd0:75 342:4014cb762e978c00:77 354:40130c5579687470:78 100:401237da397b13c0:79 25:401152ca476b5e80:81 41:401134821db233f0:95 53:4010db9acf423ba0:98 336:40106b4237e87670:103 258:400e5a63f4e2a100:103 78:400dd8c1dd66ab00:105 7:400d190e9572d7a0:109 221:4012e87945d5f1d0:133 113:40125d85864e07e0:133 111:4016c83b0799f1c0:136 293:40135c2c8842fe40:136 257:401175bfc9951980:135 346:401148402bf11040:133 39:401811fcb53b5b60:136 140:4012a8291bed2940:133 292:401a7a98249e1960:134",
    ),
    (
        "wsn",
        "FT",
        0x406267180b435430,
        "468:4023caeeba3d5b85:17 670:401cff08f56d787e:31 338:40189dff5d63b918:40 412:40163e229aa65150:51 722:401501f94ca8c448:61 721:40136b0469b95f20:67 335:4013880907cb7510:77 724:4018afa3139a4a68:76 661:4012e29367927148:84 680:40125a9275abe240:91 676:401b8509a80c74a8:100 163:401a8166add95840:112 161:4015c0afc627e1d0:119 677:40056801d36fdee0:124 467:400e88466967af60:123 166:4007ccc1ea579fe0:122 259:4013a56f8d2facf0:121 262:400eca003bc585e0:124 162:4014118050e15ca0:123 179:4013ab9df449db20:130 443:4001e0b0d40a8d40:137 264:3fe09404025d1200:136 255:3ffc6409ca8e7e40:135 316:401412ad7838f5d0:134 322:401a32885aba2fc0:138 570:401801987ef047c0:145 662:401356bf3473a420:151 165:400e3373bb1b6f80:150 574:4014ede2b4ca26a0:149 164:401361f0c1ebb000:159",
    ),
    (
        "wsn",
        "FT+M",
        0x40641a58483555fc,
        "468:4023caeeba3d5b85:17 670:401cff08f56d787e:31 338:40189dff5d63b918:40 412:40163e229aa65150:51 722:401501f94ca8c448:61 721:40136b0469b95f20:67 669:401769de4aecdeb8:77 724:401a705e5f382e60:76 661:4014757505895010:84 680:40125a9275abe240:91 676:401b8509a80c74b0:100 163:401a8166add95830:112 161:4015c0afc627e1e0:119 407:4015a523332f9d00:124 406:40134ecd161c4c20:123 179:40124192edba0d80:130 647:4011c277f13c7d80:137 569:40119b6a1edaf5e0:140 264:4010f7805db62b30:147 316:400f7b2a21e2f7e0:149 322:40148b0af0016a20:153 570:4011a21386ea6290:159 165:4017190b5f654180:158 262:401759fda7232a90:157 574:4017addca51a4d40:156 164:401231646092e2e0:166 692:4010cd87c95493c0:168 493:40129510cc6f07e0:174 583:4011b3d904b1ab20:178 158:40101d49d992b340:183",
    ),
    (
        "wsn",
        "FT+M+CI",
        0x40638ea03d139524,
        "468:4023caeeba3d5b85:17 670:401cff08f56d787e:31 338:40189dff5d63b918:40 412:40163e229aa65150:51 722:401501f94ca8c448:61 721:40136b0469b95f20:67 724:401478eb8abd30a0:77 669:40189767a99232c8:85 661:4013d8fb1b9cdbd0:84 680:40125a9275abe240:91 676:401b8509a80c74b0:100 163:401a8166add95830:112 161:4015c0afc627e1d0:119 166:401414496b492de0:124 162:4012871f18495c10:123 179:4011a6a61a2d8550:130 569:401114bfd4435d20:137 470:4011fc5a345b8610:144 259:4011fb18510cc950:143 262:40174a832718deb0:146 316:4012897417bda080:145 322:40183155198738b0:149 647:40126451d58493f0:155 164:40114a05a958e430:157 158:400ea0b466570600:159 685:400da7e74b2e7200:163 415:4014abcc89b2f620:169 281:400d79aa85dbd6c0:173 574:400bafe7fa3fdc00:174 570:40148438374dffc0:184",
    ),
    (
        "wsn",
        "FT+M+DS",
        0x4064062f1ced6cda,
        "468:4023caeeba3d5b85:17 670:401cff08f56d787e:31 338:40189dff5d63b918:40 412:40163e229aa65150:50 722:401501f94ca8c448:58 721:40136b0469b95f20:63 669:401769de4aecdeb8:74 724:401a705e5f382e60:70 661:4014757505895010:79 680:40125a9275abe240:85 676:401b8509a80c74b0:93 163:401a8166add95830:100 161:4015c0afc627e1e0:106 405:40134dfd6237ec00:108 179:40124192edba0d80:104 162:4012398c9a6fcf00:114 647:4011c277f13c7d60:115 569:40119b6a1edaf5f0:116 264:4010f7805db62b30:115 262:40133438afdda210:119 164:401166e59406ef30:109 316:400f7b2a21e2f7e0:113 322:40148b0af0016a00:112 570:4014279a7dc5a870:112 259:40179536b86697e0:109 574:4015620b8406af40:106 692:400f7e4c08b5ed80:117 664:4011cfc96f7f9f60:130 493:4014e1c323019f80:122 583:4013e4ac55db4c60:124",
    ),
    (
        "wsn",
        "FT+M+CI+DS",
        0x406372d9c406db3c,
        "468:4023caeeba3d5b85:17 670:401cff08f56d787e:31 338:40189dff5d63b918:40 412:40163e229aa65150:51 722:401501f94ca8c448:61 721:40136b0469b95f20:67 724:401478eb8abd30a0:77 680:40125a9275abe240:83 676:401b8509a80c74b8:92 163:401a8166add95820:106 161:4015c0afc627e1e0:111 407:401123bbefdb6880:115 669:40189767a99232c0:112 661:4013d8fb1b9cdbd0:112 406:40127de78d26e8a0:121 179:4011a6a61a2d8540:126 569:401114bfd4435d30:129 470:4011f8e265cfc2b0:133 259:4011fb18510cc940:134 262:40131ccbc0ab5280:139 316:4012897417bda080:139 322:40183155198738b0:127 647:4011c9f2d2b6c9d0:131 164:40102bbbf6d260e0:122 313:4013ff1ece9b9ba0:115 281:40104d73b2f49da0:110 158:400f1584cfe1f880:110 441:4011c49e10456d80:116 685:400dd6dd1cab4d00:103 415:4014cc8820fbdaa0:110",
    ),
];

#[test]
fn greedy_selections_match_the_pins() {
    assert_eq!(PINS.len(), GRAPHS.len() * VARIANTS.len());
    for &(graph_name, variant, flow_bits, steps) in PINS {
        let got = run(graph_name, variant);
        let selected: Vec<u32> = got.outcome.selected.iter().map(|e| e.0).collect();
        // `selected` lists the edge set in id order; the steps pin the order.
        let mut pinned_edges: Vec<u32> = steps
            .split(' ')
            .map(|s| s.split(':').next().unwrap().parse().unwrap())
            .collect();
        pinned_edges.sort_unstable();
        assert_eq!(selected, pinned_edges, "{graph_name} {variant}: selection");
        assert_eq!(
            got.outcome.final_flow.to_bits(),
            flow_bits,
            "{graph_name} {variant}: final flow {}",
            got.outcome.final_flow
        );
        assert_eq!(got.steps, steps, "{graph_name} {variant}: steps");
    }
}

/// Every `SelectionMetrics` counter, `name=value`, space separated.
fn ledger(m: &SelectionMetrics) -> String {
    let SelectionMetrics {
        probes,
        analytic_probes,
        components_sampled,
        components_enumerated,
        samples_drawn,
        edge_samples_drawn,
        memo_hits,
        ci_pruned,
        ds_skipped,
        insert_case_ii,
        insert_case_iiia,
        insert_case_iiib,
        insert_case_iv,
    } = *m;
    format!(
        "probes={probes} analytic={analytic_probes} sampled={components_sampled} \
         enumerated={components_enumerated} samples={samples_drawn} \
         edge_samples={edge_samples_drawn} memo_hits={memo_hits} ci_pruned={ci_pruned} \
         ds_skipped={ds_skipped} ii={insert_case_ii} iiia={insert_case_iiia} \
         iiib={insert_case_iiib} iv={insert_case_iv}"
    )
}

/// `(graph, variant, ledger)` of every pinned run, in `PINS` order.
const METRICS_PINS: &[(&str, &str, &str)] = &[
    (
        "erdos",
        "FT",
        "probes=581 analytic=513 sampled=74 enumerated=0 samples=14800 edge_samples=110800 memo_hits=0 ci_pruned=0 ds_skipped=0 ii=24 iiia=1 iiib=1 iv=4",
    ),
    (
        "erdos",
        "FT+M",
        "probes=375 analytic=321 sampled=11 enumerated=0 samples=2200 edge_samples=15600 memo_hits=46 ci_pruned=0 ds_skipped=0 ii=27 iiia=1 iiib=1 iv=1",
    ),
    (
        "erdos",
        "FT+M+CI",
        "probes=414 analytic=331 sampled=35 enumerated=0 samples=4096 edge_samples=33472 memo_hits=51 ci_pruned=34 ds_skipped=0 ii=27 iiia=1 iiib=1 iv=1",
    ),
    (
        "erdos",
        "FT+M+DS",
        "probes=341 analytic=327 sampled=12 enumerated=0 samples=2400 edge_samples=17400 memo_hits=5 ci_pruned=0 ds_skipped=45 ii=27 iiia=1 iiib=1 iv=1",
    ),
    (
        "erdos",
        "FT+M+CI+DS",
        "probes=344 analytic=284 sampled=37 enumerated=0 samples=4160 edge_samples=33472 memo_hits=25 ci_pruned=24 ds_skipped=48 ii=28 iiia=0 iiib=1 iv=1",
    ),
    (
        "preferential",
        "FT",
        "probes=848 analytic=800 sampled=53 enumerated=0 samples=10600 edge_samples=68600 memo_hits=0 ci_pruned=0 ds_skipped=0 ii=25 iiia=0 iiib=2 iv=3",
    ),
    (
        "preferential",
        "FT+M",
        "probes=591 analytic=543 sampled=14 enumerated=0 samples=2800 edge_samples=22400 memo_hits=37 ci_pruned=0 ds_skipped=0 ii=27 iiia=0 iiib=2 iv=1",
    ),
    (
        "preferential",
        "FT+M+CI",
        "probes=693 analytic=592 sampled=48 enumerated=0 samples=4544 edge_samples=37120 memo_hits=57 ci_pruned=24 ds_skipped=0 ii=26 iiia=0 iiib=1 iv=3",
    ),
    (
        "preferential",
        "FT+M+DS",
        "probes=554 analytic=539 sampled=12 enumerated=0 samples=2400 edge_samples=18600 memo_hits=6 ci_pruned=0 ds_skipped=31 ii=27 iiia=0 iiib=2 iv=1",
    ),
    (
        "preferential",
        "FT+M+CI+DS",
        "probes=529 analytic=461 sampled=38 enumerated=0 samples=4544 edge_samples=28288 memo_hits=33 ci_pruned=25 ds_skipped=33 ii=27 iiia=0 iiib=1 iv=2",
    ),
    (
        "wsn",
        "FT",
        "probes=1818 analytic=1240 sampled=588 enumerated=0 samples=117600 edge_samples=1904600 memo_hits=0 ci_pruned=0 ds_skipped=0 ii=20 iiia=3 iiib=1 iv=6",
    ),
    (
        "wsn",
        "FT+M",
        "probes=1564 analytic=729 sampled=205 enumerated=0 samples=41000 edge_samples=532400 memo_hits=635 ci_pruned=0 ds_skipped=0 ii=25 iiia=0 iiib=2 iv=3",
    ),
    (
        "wsn",
        "FT+M+CI",
        "probes=1733 analytic=652 sampled=398 enumerated=0 samples=48128 edge_samples=557440 memo_hits=688 ci_pruned=437 ds_skipped=0 ii=25 iiia=0 iiib=2 iv=3",
    ),
    (
        "wsn",
        "FT+M+DS",
        "probes=975 analytic=836 sampled=124 enumerated=0 samples=24800 edge_samples=288000 memo_hits=21 ci_pruned=0 ds_skipped=687 ii=24 iiia=0 iiib=2 iv=4",
    ),
    (
        "wsn",
        "FT+M+CI+DS",
        "probes=1550 analytic=846 sampled=486 enumerated=0 samples=54848 edge_samples=695744 memo_hits=224 ci_pruned=261 ds_skipped=452 ii=24 iiia=0 iiib=2 iv=4",
    ),
];

#[test]
fn greedy_metrics_match_the_pins() {
    assert_eq!(METRICS_PINS.len(), GRAPHS.len() * VARIANTS.len());
    for &(graph_name, variant, pinned) in METRICS_PINS {
        let got = ledger(&run(graph_name, variant).outcome.metrics);
        assert_eq!(got, pinned, "{graph_name} {variant}: metrics");
    }
}

/// `SolveRun::flow` of the session's `FT+M+CI+DS` query on `graph_name`.
fn session_flow(graph_name: &str) -> f64 {
    let g = graph(graph_name);
    let q = suggest_query(&g);
    Session::new(&g)
        .with_seed(SEED)
        .query(q)
        .unwrap()
        .algorithm(Algorithm::FtMCiDs)
        .budget(BUDGET)
        .samples(SAMPLES)
        .run()
        .unwrap()
        .flow
}

/// `(graph, SolveRun::flow bits)`.
const SESSION_FLOW_PINS: &[(&str, u64)] = &[
    ("erdos", 0x40568ae783e5f51a),
    ("preferential", 0x40642f43000ae974),
    ("wsn", 0x40633868bd20b50b),
];

#[test]
fn session_flows_match_the_pins() {
    assert_eq!(SESSION_FLOW_PINS.len(), GRAPHS.len());
    for &(graph_name, flow_bits) in SESSION_FLOW_PINS {
        let flow = session_flow(graph_name);
        assert_eq!(
            flow.to_bits(),
            flow_bits,
            "{graph_name}: session flow {flow}"
        );
    }
}

#[test]
fn pins_cover_a_structural_commit() {
    // The pinned wsn runs must include a Case IIIb or IV commit, so the
    // pins exercise more than leaf attachments.
    let out = run("wsn", "FT+M+CI+DS").outcome;
    assert!(
        out.metrics.insert_case_iiib + out.metrics.insert_case_iv > 0,
        "no Case IIIb/IV commit: {:?}",
        out.metrics
    );
}

#[test]
#[ignore = "prints the pin table; run explicitly to record new pins"]
fn print_pins() {
    for graph_name in GRAPHS {
        for variant in VARIANTS {
            let got = run(graph_name, variant);
            println!(
                "    (\n        {graph_name:?},\n        {variant:?},\n        0x{:016x},\n        \"{}\",\n    ),",
                got.outcome.final_flow.to_bits(),
                got.steps
            );
        }
    }
    for graph_name in GRAPHS {
        println!(
            "    ({graph_name:?}, 0x{:016x}),",
            session_flow(graph_name).to_bits()
        );
    }
    for graph_name in GRAPHS {
        for variant in VARIANTS {
            let got = run(graph_name, variant);
            println!(
                "    (\n        {graph_name:?},\n        {variant:?},\n        \"{}\",\n    ),",
                ledger(&got.outcome.metrics)
            );
        }
    }
}
