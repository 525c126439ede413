//! Bench for the Table III cells: sensor-gating episodes for each industry
//! sensor preset, plus the closed-form 4τ gain kernel.

use seo_bench::cells::four_tau_sensor_gain;
use seo_bench::timing::bench;
use seo_core::config::{EnergyAccounting, SeoConfig};
use seo_core::model::ModelSet;
use seo_core::optimizer::OptimizerKind;
use seo_core::runtime::{EpisodeScratch, RuntimeLoop, WorldSource};
use seo_platform::sensor::SensorSpec;
use seo_sim::scenario::ScenarioConfig;
use std::hint::black_box;

fn main() {
    let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
    let sensors = [
        SensorSpec::zed_camera(),
        SensorSpec::navtech_cts350x(),
        SensorSpec::velodyne_hdl32e(),
    ];
    let world = ScenarioConfig::new(2).with_seed(1).generate();
    for sensor in &sensors {
        let models = ModelSet::sensor_setup(sensor, config.tau).expect("valid models");
        let runtime =
            RuntimeLoop::new(config, models, OptimizerKind::SensorGating).expect("valid runtime");
        let mut scratch = EpisodeScratch::new();
        bench(
            &format!(
                "table3_sensor_gating/sensor_gating_episode_{}",
                sensor.name()
            ),
            || black_box(runtime.run_with(WorldSource::Static(&world), 9, &mut scratch)),
        );
    }
    bench("table3_sensor_gating/four_tau_closed_form", || {
        for sensor in &sensors {
            for m in [1u32, 2] {
                black_box(four_tau_sensor_gain(black_box(sensor), m, &config));
            }
        }
    });
}
